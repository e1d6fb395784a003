package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeSizing is a functional check (N = 100, a 30-node fleet); its numbers
// mean nothing.
var smokeSizing = sizing{
	fig7Sizes:  []int{100},
	stormPeers: 100, stormAds: 12,
	cityPeers: 100, cityAds: 3,
	fleetNodes: 30, fleetRate: 10, fleetDrain: time.Second, fleetBoots: 1,
	fleetMinWindow: 500 * time.Millisecond,
	inputSets:      2, setups: 1, probeBatches: 1,
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A span's self time is its duration minus what its children cover, with
// overlapping children counted once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, StartNs: 20, EndNs: 50},  // overlaps span 1 by 10
		{ID: 3, Parent: 0, StartNs: 90, EndNs: 120}, // runs past its parent
		{ID: 4, Parent: 2, StartNs: 25, EndNs: 45},
	}
	fillSelfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 20, 30, 20}
	for i, s := range spans {
		if s.SelfNs != want[i] {
			t.Errorf("span %d: self %d ns, want %d", i, s.SelfNs, want[i])
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id, nil)
	tr.rewind(tr.mark())
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

// Rewinding to a mark forgets the spans of a rep that turned out invalid.
func TestTracerRewind(t *testing.T) {
	tr := newTracer("w")
	tr.end(tr.begin("kept", -1), nil)
	mark := tr.mark()
	tr.end(tr.begin("campaign.inject", -1), nil)
	tr.rewind(mark)
	id := tr.begin("campaign.inject", -1)
	tr.end(id, nil)
	if id != 1 || len(tr.spans) != 2 || len(tr.durations("campaign.inject")) != 1 {
		t.Errorf("after a rewind: next id %d, spans %+v", id, tr.spans)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// returns, because the driver computes its spreads with that.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5}, // exclusive method extrapolates on two samples
		{[]float64{5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

// The highest percentile with at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {4600, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestParseTracesFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pprof_traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := parseTraces(data)
	if err != nil {
		t.Fatal(err)
	}
	if sh.totalMs != 100 {
		t.Fatalf("total %v ms, want 100", sh.totalMs)
	}
	wantSelf := map[string]float64{"mobility": 0.4, "geo": 0.2, "other": 0.1, "runtime": 0.2, "memnet": 0.1}
	wantCum := map[string]float64{
		"mobility": 0.4, "metrics": 0.6, "geo": 0.3, "radio": 0.5, "sim": 0.8,
		"other":   0.2, // math under radio, container/heap under sim; main.* and runtime.main are root frames
		"runtime": 0.2, "memnet": 0.1, "node": 0.1,
	}
	var selfSum float64
	for _, m := range profileModules {
		selfSum += sh.self[m]
		if !near(sh.self[m], wantSelf[m]) {
			t.Errorf("cpu_self.%s = %v, want %v", m, sh.self[m], wantSelf[m])
		}
		if !near(sh.cum[m], wantCum[m]) {
			t.Errorf("cpu_cum.%s = %v, want %v", m, sh.cum[m], wantCum[m])
		}
	}
	if !near(selfSum, 1) {
		t.Errorf("self shares add up to %v, want 1", selfSum)
	}
	if _, err := parseTraces([]byte("-----+-----\n   1.5s   runtime.futex\n")); err == nil {
		t.Error("a value that is not in milliseconds parsed without error")
	}
}

// The same seed must give the same ad positions and schedule, and another
// seed different ones.
func TestInputsFollowSeed(t *testing.T) {
	for _, name := range []string{wlFig7, wlAdStorm, wlCityScale} {
		a, _, err := simInputs(name, 7, smokeSizing)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := simInputs(name, 7, smokeSizing)
		c, _, _ := simInputs(name, 8, smokeSizing)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
	a := fleetInputs(7, smokeSizing, smokeSizing.fleetMinWindow)
	if !reflect.DeepEqual(a, fleetInputs(7, smokeSizing, smokeSizing.fleetMinWindow)) {
		t.Error("live_fleet: seed 7 gave two different inputs")
	}
	if reflect.DeepEqual(a, fleetInputs(8, smokeSizing, smokeSizing.fleetMinWindow)) {
		t.Error("live_fleet: seeds 7 and 8 gave the same inputs")
	}
	if len(a.ads) == 0 || a.ads[0].due != 0 {
		t.Errorf("live_fleet: schedule %v does not start when the window opens", a.ads)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", base, base, "lower", unchanged},
		{"within bound", base, shift(1.03), "lower", unchanged},
		{"slower", base, shift(1.2), "lower", regressed},
		{"faster", base, shift(0.8), "lower", improved},
		{"higher is better, fell", base, shift(0.8), "higher", regressed},
		{"higher is better, rose", base, shift(1.2), "higher", improved},
		{"noisy base", noisy, shift(1.0), "lower", unresolved},
		{"noisy base, every run better", noisy, shift(0.3), "lower", improved},
	} {
		if got := judge(c.a, c.b, c.better, 0.05); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	// A metric that repeats exactly for a seed is judged pair by pair, however
	// much it varies from one seed to the next.
	seeds := []float64{60, 75, 90, 70, 85, 65, 80, 95, 72, 88}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(seeds))
		for i, x := range seeds {
			out[i] = x * f
		}
		return out
	}
	onePairOff := append([]float64(nil), seeds...)
	onePairOff[3] *= 1.5
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"bit-identical", seeds, "higher", unchanged},
		{"2 % lower, higher is better", scaled(0.98), "higher", regressed},
		{"2 % lower, lower is better", scaled(0.98), "lower", improved},
		{"half a per cent worse", scaled(1.005), "lower", unchanged},
		{"one pair of ten moved", onePairOff, "lower", unchanged},
	} {
		if got := judgeExact(seeds, c.b, c.better); got != c.want {
			t.Errorf("exact, %s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// testSet makes a set of n runs per workload on seeds 1..n. Run i of a
// workload is stamped step(i) seconds after noon; every host-measured metric
// reads worse by the factor host and every exact one the same for a seed.
func testSet(spec *benchSpec, n int, host float64, step func(i int) int) *resultSet {
	noon := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	set := new(resultSet)
	for _, w := range spec.Workloads {
		for i := 0; i < n; i++ {
			r := &runResult{Workload: w.Name, Seed: uint64(i + 1), Metrics: map[string]metricValue{}}
			r.Timestamp = noon.Add(time.Duration(step(i)) * time.Second).Format(time.RFC3339)
			for _, m := range spec.EndToEnd {
				v := 100 + float64(i%3) // a per cent or two of spread from seed to seed
				switch {
				case exactPerSeed(w.Name, m.Name):
				case m.Better == "higher":
					v /= host
				default:
					v *= host
				}
				r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
			set.Runs = append(set.Runs, r)
		}
	}
	return set
}

// Two sets of one commit measured one after the other on a host that got
// uniformly faster must not read as a gain (nor, the other way round, as a
// regression); the same sets measured in turns are resolved.
func TestCompareNeedsAlternatedSets(t *testing.T) {
	spec := loadTestSpec(t)
	dir := t.TempDir()
	write := func(name string, set *resultSet) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	verdicts := func(a, b *resultSet) (string, error) {
		var out strings.Builder
		err := compareFiles(write("a.json", a), write("b.json", b), spec, &out)
		return out.String(), err
	}
	const n = 10
	early := func(i int) int { return 30 * i }
	late := func(i int) int { return 30 * (n + i) }
	turnsA := func(i int) int { return 60*i + 30*(i%2) } // A B B A A B …
	turnsB := func(i int) int { return 60*i + 30*((i+1)%2) }

	for _, host := range []float64{0.7, 1.4} {
		out, err := verdicts(testSet(spec, n, 1, early), testSet(spec, n, host, late))
		if err != nil || strings.Contains(out, improved) || strings.Contains(out, regressed) || !strings.Contains(out, unresolved) {
			t.Errorf("sets measured one after the other, host x%v: want unresolved rows and no error, got %v\n%s", host, err, out)
		}
	}
	out, err := verdicts(testSet(spec, n, 1, turnsA), testSet(spec, n, 0.7, turnsB))
	if err != nil || !strings.Contains(out, improved) || strings.Contains(out, unresolved) {
		t.Errorf("sets measured in turns, B 30 %% faster: want improved rows, got %v\n%s", err, out)
	}
	out, err = verdicts(testSet(spec, n, 1, turnsA), testSet(spec, n, 1.4, turnsB))
	if err == nil || !strings.Contains(out, regressed) {
		t.Errorf("sets measured in turns, B 40 %% slower: want regressed rows and an error, got %v\n%s", err, out)
	}
	out, err = verdicts(testSet(spec, n, 1, turnsA), testSet(spec, n, 1, turnsB))
	if err != nil || strings.Contains(out, improved) || strings.Contains(out, regressed) || strings.Contains(out, unresolved) {
		t.Errorf("the same values measured in turns: want every row unchanged, got %v\n%s", err, out)
	}
	if _, err = verdicts(testSet(spec, n, 1, turnsA), testSet(spec, n-1, 1, turnsB)); err == nil {
		t.Error("sets of different seeds compared without error")
	}
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(benchDir)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// A scaled-down run of every workload must emit every metric BENCHMARK.json
// names, with its unit, and report its outputs correct.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec := loadTestSpec(t)
	check := func(res *runResult, want []metricSpec) {
		t.Helper()
		// Correct means no failed operation, except on live_fleet, where the
		// lossy medium may cost a probe slot or two.
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, correct %v: %v", res.Workload, res.Attempted, res.Failed, res.Correct, res.Notes)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", res.Workload, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.N < 1 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: metric %s = %+v, want a finite value in %s", res.Workload, m.Name, got, m.Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		o := runOpts{workload: w.Name, seed: 3, seconds: 0.05, sizing: smokeSizing, outDir: t.TempDir()}
		res, _, err := runWorkload(o, spec)
		if err != nil {
			t.Fatal(err)
		}
		check(res, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}

	// One traced run: every per-layer metric, spans with parents and counts,
	// and the layers ad_storm exercises all measured.
	o := runOpts{workload: wlAdStorm, seed: 3, seconds: 0.05, traced: true, sizing: smokeSizing, outDir: t.TempDir()}
	res, spans, err := runWorkload(o, spec)
	if err != nil {
		t.Fatal(err)
	}
	check(res, spec.PerLayer)
	for _, name := range []string{
		"experiment.build_s", "sim.engine_run_s", "metrics.report_s", "sim.events", "sim.batches",
		"radio.broadcasts", "radio.deliveries", "core.duplicates", "sim.phase_decide_s",
		"sim.attributed_share", "mobility.position_ns", "geo.segment_circle_hit_ns",
		"radio.refresh_grid_us", "radio.query_ns", "radio.broadcast_ns", "sim.schedule_dispatch_ns",
		"ads.cache_insert_evict_ns", "ads.encode_ns", "ads.decode_ns", "fm.merge_ns",
		"core.forward_prob_ns", "sim.parallel_speedup", "runtime.peak_rss_mb",
	} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("ad_storm traced: %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	roots := 0
	for _, s := range spans {
		switch {
		case s.Workload != wlAdStorm || s.Rep < 1 || s.EndNs < s.StartNs:
			t.Fatalf("malformed span %+v", s)
		case s.Parent == -1:
			roots++
		case spans[s.Parent].Name != "rep":
			t.Fatalf("span %+v is not under a rep span", s)
		}
	}
	if roots != res.Reps || roots == 0 {
		t.Errorf("%d root spans for %d traced reps", roots, res.Reps)
	}
}
