package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"instantad/internal/stats"
)

// runOpts is one workload run as the command line asks for it.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	sizing   sizing
	outDir   string
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Reps      int      `json:"reps"`
	Workers   int      `json:"engine_workers"`
	Shards    int      `json:"engine_shards"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Notes     []string `json:"notes,omitempty"`
	// Metrics holds the end-to-end metrics of a timed run, or the per-layer
	// metrics of a traced one.
	Metrics map[string]metricValue `json:"metrics"`
	provenance
}

// runWorkload measures one workload in this process and returns its result
// and, for a traced run, the spans recorded.
func runWorkload(o runOpts, spec *benchSpec) (*runResult, []span, error) {
	res := &runResult{
		Workload: o.workload, Why: spec.why(o.workload), Seed: o.seed,
		Seconds: o.seconds, Traced: o.traced,
	}
	e2e, layers := samples{}, samples{}
	var tr *tracer
	if o.traced {
		tr = newTracer(o.workload)
	}
	var err error
	if o.workload == wlLiveFleet {
		err = runLive(o, res, tr, e2e, layers)
	} else {
		err = runSim(o, res, tr, e2e, layers)
	}
	if err != nil {
		return nil, nil, err
	}
	if o.traced {
		layers.add("runtime.peak_rss_mb", peakRSSMB())
		if err := profileShares(profilePath(o), layers); err != nil {
			return nil, nil, err
		}
	}
	res.Correct = res.Failed == 0
	if o.workload == wlLiveFleet {
		// The medium drops a tenth of all datagrams, so a rare probe may
		// miss its ad; the run is wrong only past the delivery-rate bound.
		m, _ := spec.endToEnd("delivery_rate_pct")
		res.Correct = float64(res.Failed) <= m.Bound*float64(res.Attempted)
	}

	// Emit exactly the metrics BENCHMARK.json names, with its units.
	want, have := spec.EndToEnd, e2e
	if o.traced {
		want, have = spec.PerLayer, layers
	}
	res.Metrics = make(map[string]metricValue, len(want))
	for _, m := range want {
		xs, ok := have[m.Name]
		if !ok {
			if !o.traced {
				return nil, nil, fmt.Errorf("bench: %s measured no %s", o.workload, m.Name)
			}
			xs = []float64{0} // a layer this workload does not run did no work
		}
		res.Metrics[m.Name] = summarize(xs, m.Unit)
	}
	var spans []span
	if tr != nil {
		fillSelfTimes(tr.spans)
		spans = tr.spans
	}
	return res, spans, nil
}

// runSim runs a simulation workload: one discarded warm-up rep, then timed
// reps cycling through the input sets until the time is used up (at least one
// full cycle). A traced run splits the
// time three ways instead: untraced reps as the overhead baseline, traced
// and profiled reps for the layer numbers, and reps at workers = shards = 1
// for the parallel speed-up; then the layer probes.
func runSim(o runOpts, res *runResult, tr *tracer, e2e, layers samples) error {
	sets, eng, err := simInputs(o.workload, o.seed, o.sizing)
	if err != nil {
		return err
	}
	res.Workers, res.Shards = eng.workers, eng.shards
	r := &simRunner{sets: sets}
	budget := time.Duration(o.seconds * float64(time.Second))

	// phase runs reps, cycling through the input sets from the first, until
	// its share of the time is used; at least min reps.
	phase := func(share float64, min int, eng engine, tr *tracer, e2e, layers samples) int {
		deadline := time.Now().Add(time.Duration(share * float64(budget)))
		n := 0
		for n < min || time.Now().Before(deadline) {
			if tr != nil {
				tr.rep++
			}
			r.rep(n%len(sets), eng, tr, e2e, layers)
			n++
		}
		return n
	}

	r.rep(0, eng, nil, nil, nil) // warm-up: fills caches, fixes set 0's reference fingerprints
	if !o.traced {
		res.Reps = phase(1, len(sets), eng, nil, e2e, nil)
		// Set-up is milliseconds here, so its median is taken over more
		// builds than the reps alone give.
		for len(e2e["setup_s"]) < o.sizing.setups {
			d, err := r.buildAll(eng)
			if err != nil {
				return err
			}
			e2e.add("setup_s", d.Seconds())
		}
	} else {
		phase(0.3, 1, eng, nil, e2e, nil)
		stop, err := startProfile(o)
		if err != nil {
			return err
		}
		traced := samples{}
		res.Reps = phase(0.4, 1, eng, tr, traced, layers)
		if err := stop(); err != nil {
			return err
		}
		seq := samples{}
		phase(0.3, 1, engine{workers: 1, shards: 1}, nil, seq, nil)

		base := stats.Median(e2e["wall_s"])
		layers.add("sim.parallel_speedup", stats.Median(seq["wall_s"])/base)
		layers.add("bench.trace_overhead_pct", 100*(stats.Median(traced["wall_s"])/base-1))
		first := sets[0][len(sets[0])-1] // the largest population of a sweep
		if err := runProbes(probeInput{sc: first.sc, ads: first.ads, shards: eng.shards, cacheK: first.sc.CacheK, batches: o.sizing.probeBatches}, layers); err != nil {
			return err
		}
	}
	res.Attempted, res.Failed, res.Notes = r.attempted, r.failed, r.notes
	return nil
}

// runLive runs the live workload. A timed run boots the fleet a few times
// (set-up is reported as their median) and measures one rep; a rep whose
// generator ran more than a round late is invalid and is run once more. A
// traced run measures an untraced and a traced, profiled rep of half the
// window each, then probes the layers on a canonical stand-in scenario,
// since a fleet has no mobility or radio channel of its own.
func runLive(o runOpts, res *runResult, tr *tracer, e2e, layers samples) error {
	window := time.Duration((o.seconds - 5) * float64(time.Second))
	if o.traced {
		window /= 2
	}
	window = max(window, o.sizing.fleetMinWindow)
	in := fleetInputs(o.seed, o.sizing, window)

	rep := func(tr *tracer) (fleetOutcome, error) {
		mark := tr.mark()
		out, err := runFleetRep(in, tr)
		if err == nil && out.lateMax > in.cfg.RoundTime {
			res.Notes = append(res.Notes, fmt.Sprintf("rep invalid: generator ran %v late (more than one round); re-run once", out.lateMax))
			tr.rewind(mark) // the invalid rep's spans must not feed the layer numbers
			out, err = runFleetRep(in, tr)
			if err == nil && out.lateMax > in.cfg.RoundTime {
				res.Notes = append(res.Notes, fmt.Sprintf("the re-run's generator also ran %v late: this host cannot pace the load, read the latencies with that in mind", out.lateMax))
			}
		}
		return out, err
	}

	if !o.traced {
		// Set-up is reported as a median over several boots, all taken
		// before the rep fills the heap.
		for i := 1; i < o.sizing.fleetBoots; i++ {
			boot, err := bootFleet(in)
			if err != nil {
				return err
			}
			e2e.add("setup_s", boot.Seconds())
		}
	}
	out, err := rep(nil)
	if err != nil {
		return err
	}
	addFleetSamples(out, e2e, nil)
	res.Reps = 1
	res.Attempted, res.Failed = out.slots, out.failed
	if o.traced {
		stop, err := startProfile(o)
		if err != nil {
			return err
		}
		tr.rep = 1
		tout, err := rep(tr)
		if err != nil {
			return err
		}
		if err := stop(); err != nil {
			return err
		}
		traced := samples{}
		addFleetSamples(tout, traced, layers)
		res.Attempted, res.Failed = res.Attempted+tout.slots, res.Failed+tout.failed
		out = tout
		for _, name := range []string{"campaign.inject", "campaign.probe_sweep"} {
			layers.add(name+"_us", 1e6*stats.Median(tr.durations(name)))
		}
		layers.add("bench.trace_overhead_pct",
			100*(stats.Median(traced["cpu_ms_per_ad"])/stats.Median(e2e["cpu_ms_per_ad"])-1))
		standIn := stormInputs(o.seed, o.sizing)[0]
		standIn.sc.Popularity.Enabled = false
		const fleetCacheK = 16 // campaign.FleetConfig's default, which the fleet runs with
		if err := runProbes(probeInput{sc: standIn.sc, ads: standIn.ads, shards: 1, cacheK: fleetCacheK, batches: o.sizing.probeBatches}, layers); err != nil {
			return err
		}
	}
	if n := len(out.latencies); highestPercentile(n) < 95 {
		res.Notes = append(res.Notes, fmt.Sprintf("only %d latency samples: the tail percentiles have fewer than ten samples beyond them", n))
	}
	return nil
}

func profilePath(o runOpts) string {
	return filepath.Join(o.outDir, "cpu-"+o.workload+".pprof")
}

// startProfile records a CPU profile of this process until stop is called.
func startProfile(o runOpts) (stop func() error, err error) {
	f, err := os.Create(profilePath(o))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
