package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"instantad/internal/stats"
)

// Verdicts of a comparison, by the choosing-metrics rules.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// exactBound is the bound on a metric that repeats exactly for a seed, when
// the two sets ran the same seeds: nothing but a change to the program can
// move it, so the bound in BENCHMARK.json, which has to cover the variation
// from one seed to the next, does not apply.
const exactBound = 0.01

// exactPerSeed reports a metric that is an exact function of the inputs: the
// simulated metrics of the simulation workloads. Everything else is measured
// on the host — timings, CPU, heap, and all of live_fleet, which runs on the
// wall clock.
func exactPerSeed(workload, metric string) bool {
	switch metric {
	case "setup_s", "wall_s", "cpu_ms_per_ad", "retained_heap_mb":
		return false
	}
	return workload != wlLiveFleet
}

// sign is +1 when a larger value is worse.
func sign(better string) float64 {
	if better == "higher" {
		return -1
	}
	return 1
}

// pairedWin reports whether b beats a in at least nine tenths of the pairs
// (a[i], b[i]); a tie counts for neither side.
func pairedWin(a, b []float64, better string) bool {
	wins, pairs := 0, 0
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		pairs++
		if sign(better)*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	return pairs > 0 && float64(wins) >= 0.9*float64(pairs)
}

// judge compares set B against set A on one metric measured on the host. Each slice
// holds one value per run, and a[i] and b[i] were measured one after the
// other. better is "lower" or "higher"; bound is the share of A's median by
// which B may be worse.
//
//   - unresolved: A's own run-to-run spread is wider than the bound, so the
//     sets cannot tell a change that size from noise — unless every run of B
//     reads better than every run of A, which is an improvement regardless.
//   - regressed: B's median is worse than A's by more than the bound.
//   - improved: B's median is better by more than A's interquartile distance
//     and B wins at least nine tenths of the pairs.
//   - unchanged: anything else.
func judge(a, b []float64, better string, bound float64) string {
	medA, medB := stats.Median(a), stats.Median(b)
	worseBy := sign(better) * (medB - medA) / math.Abs(medA)

	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if sign(better)*(x-y) >= 0 {
				allBetter = false
			}
		}
	}
	if allBetter {
		return improved
	}
	if spread(a) > bound {
		return unresolved
	}
	if worseBy > bound {
		return regressed
	}
	q1, q3 := quartiles(a)
	if -worseBy*math.Abs(medA) > q3-q1 && pairedWin(a, b, better) {
		return improved
	}
	return unchanged
}

// judgeExact compares a metric that repeats exactly for a seed, on two sets
// that ran the same seeds: a[i] and b[i] come from the same inputs, so any
// difference is the program's doing and no spread has to be allowed for.
// It is judged on the change within each pair.
func judgeExact(a, b []float64, better string) string {
	change := make([]float64, len(a)) // b's worsening over a, per pair
	same := true
	for i := range a {
		change[i] = sign(better) * (b[i] - a[i]) / math.Abs(a[i])
		same = same && a[i] == b[i]
	}
	switch med := stats.Median(change); {
	case same:
		return unchanged
	case med > exactBound:
		return regressed
	case med < 0 && pairedWin(a, b, better):
		return improved
	}
	return unchanged
}

// pairing is one workload's runs in two sets, matched up by seed.
type pairing struct {
	a, b []*runResult // a[i] and b[i] ran the same seed
	// alternated says the two sets were measured in turns — A, B, B, A, … —
	// so the host's drift over the minutes a set takes falls on both alike.
	alternated bool
}

// pairRuns matches the runs of one workload by seed. Sets that did not run
// the same seeds cannot be paired and return false.
func pairRuns(setA, setB *resultSet, workload string) (pairing, bool) {
	bySeed := map[uint64]*runResult{}
	nB := 0
	for _, r := range setB.Runs {
		if r.Workload == workload {
			bySeed[r.Seed] = r
			nB++
		}
	}
	var p pairing
	for _, r := range setA.Runs {
		if r.Workload != workload {
			continue
		}
		other, ok := bySeed[r.Seed]
		if !ok {
			return pairing{}, false
		}
		p.a, p.b = append(p.a, r), append(p.b, other)
	}
	if len(p.a) == 0 || len(p.a) != nB || len(bySeed) != nB {
		return pairing{}, false
	}

	// In time order, sets measured in turns change sides at least once per
	// pair; sets measured one after the other change sides once.
	type stamped struct {
		at   string // RFC 3339 in UTC sorts as text
		side byte
	}
	var order []stamped
	for i := range p.a {
		order = append(order, stamped{p.a[i].Timestamp, 'A'}, stamped{p.b[i].Timestamp, 'B'})
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
	switches := 0
	for i := 1; i < len(order); i++ {
		if order[i].side != order[i-1].side {
			switches++
		}
	}
	p.alternated = len(p.a) >= 2 && switches >= len(p.a)
	return p, true
}

func metricValues(runs []*runResult, metric string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians with their quartiles, B's median over A's (A is the base), the
// bound, and the verdict. The sets must have run the same seeds. A metric
// that repeats exactly for a seed is judged pair by pair against exactBound;
// one measured on the host against its bound in BENCHMARK.json, and only if
// the sets were measured in turns: between two sets measured one after the
// other this host's drift alone moves every timing by more than A's spread, so
// such a row that left its bound or would read as a gain is unresolved.
// It fails if any row regressed.
func compareFiles(pathA, pathB string, spec *benchSpec, w io.Writer) error {
	var setA, setB resultSet
	if err := readJSON(pathA, &setA); err != nil {
		return err
	}
	if err := readJSON(pathB, &setB); err != nil {
		return err
	}
	fmt.Fprintf(w, "A (base): %s  commit=%s  ncpu=%d gomaxprocs=%d %s  %s\n",
		pathA, setA.Commit, setA.NCPU, setA.GOMAXPROCS, setA.GoVersion, setA.Timestamp)
	fmt.Fprintf(w, "B       : %s  commit=%s  ncpu=%d gomaxprocs=%d %s  %s\n",
		pathB, setB.Commit, setB.NCPU, setB.GOMAXPROCS, setB.GoVersion, setB.Timestamp)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB/A\tbound\tverdict")
	regressions, sequential := 0, false
	for _, wl := range spec.Workloads {
		p, ok := pairRuns(&setA, &setB, wl.Name)
		if !ok {
			return fmt.Errorf("%s: the two sets did not run the same seeds; make both with the same -seed and -runs", wl.Name)
		}
		for _, m := range spec.EndToEnd {
			a, b := metricValues(p.a, m.Name), metricValues(p.b, m.Name)
			sa, sb := summarize(a, m.Unit), summarize(b, m.Unit)
			bound, verdict := m.Bound, ""
			switch {
			case exactPerSeed(wl.Name, m.Name):
				bound, verdict = exactBound, judgeExact(a, b, m.Better)
			case p.alternated:
				verdict = judge(a, b, m.Better, bound)
			default:
				if verdict = judge(a, b, m.Better, bound); verdict != unchanged {
					verdict, sequential = unresolved, true
				}
			}
			if verdict == regressed {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%.4f\t%.0f%% %s\t%s\n",
				wl.Name, m.Name, m.Unit, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3,
				sb.Value/sa.Value, 100*bound, m.Better, verdict)
		}
	}
	tw.Flush()
	if sequential {
		fmt.Fprintln(w, "\nThe sets were not measured in turns, so host-measured rows that moved are unresolved: add to the two sets alternately with -out (see README.md).")
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressions)
	}
	return nil
}
