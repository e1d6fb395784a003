package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"instantad/internal/experiment"
	"instantad/internal/obs"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/workload"
)

// fingerprint is what must repeat exactly when one scenario input runs
// again: the events dispatched, the channel's counters, the frames broadcast
// and the bits of the two simulated averages.
type fingerprint struct {
	set      bool
	events   uint64
	channel  radio.Stats
	messages uint64
	rateBits uint64
	timeBits uint64
}

// scenarioOutcome is one scenario run: the four timed calls, the simulated
// results summed over its ads, and the layer counts read afterwards.
type scenarioOutcome struct {
	build, schedule, run, report time.Duration

	ads                      int
	rate, dtime, p50, p95    float64 // sums over ads
	messages, datagrams      uint64
	fp                       fingerprint
	events, dupes, evictions uint64
	channel                  radio.Stats
	snap                     obs.Snapshot
}

// runScenario drives one simulation through the public seams of
// internal/experiment — Build, ScheduleAd, Engine.Run, Metrics.Report — the
// same calls Scenario.Run makes, kept apart here so each is timed and
// spanned on its own. The returned Sim keeps the run's heap reachable.
func runScenario(in scenarioInput, eng engine, tr *tracer, parent int) (*experiment.Sim, scenarioOutcome, error) {
	var out scenarioOutcome
	sc := in.sc
	sc.Workers, sc.Shards = eng.workers, eng.shards

	id := tr.begin("experiment.build", parent)
	t0 := time.Now()
	sm, err := sc.Build()
	out.build = time.Since(t0)
	tr.end(id, map[string]float64{"peers": float64(sc.NumPeers)})
	if err != nil {
		return nil, out, fmt.Errorf("%s: build: %w", sc.Name, err)
	}

	id = tr.begin("experiment.schedule_ads", parent)
	t0 = time.Now()
	if in.interestSeed != 0 {
		workload.AssignInterests(sm.Net, workload.InterestConfig{Skew: 0.8}, rng.New(in.interestSeed))
	}
	handles := make([]*experiment.AdHandle, len(in.ads))
	for i, ad := range in.ads {
		handles[i] = sm.ScheduleAd(ad.t, ad.at, ad.spec)
	}
	out.schedule = time.Since(t0)
	tr.end(id, map[string]float64{"ads": float64(len(in.ads))})

	id = tr.begin("sim.engine_run", parent)
	t0 = time.Now()
	sm.Engine.Run(sc.SimTime)
	out.run = time.Since(t0)
	out.events = sm.Engine.Dispatched()
	out.channel = sm.Net.Channel().Stats()
	tr.end(id, map[string]float64{
		"events":     float64(out.events),
		"broadcasts": float64(out.channel.Broadcasts),
		"deliveries": float64(out.channel.Deliveries),
	})

	id = tr.begin("metrics.report", parent)
	t0 = time.Now()
	for i, h := range handles {
		if h.Err != nil {
			err = fmt.Errorf("%s: ad %d: %w", sc.Name, i, h.Err)
			break
		}
		if h.Ad == nil {
			err = fmt.Errorf("%s: ad %d was never issued", sc.Name, i)
			break
		}
		rep, rerr := sm.Metrics.Report(h.Ad.ID)
		if rerr != nil {
			err = fmt.Errorf("%s: ad %d: %w", sc.Name, i, rerr)
			break
		}
		out.ads++
		out.rate += rep.DeliveryRate
		out.dtime += rep.DeliveryTimes.Mean
		out.p50 += rep.P50
		out.p95 += rep.P95
	}
	out.messages = sm.Metrics.TotalMessages()
	out.report = time.Since(t0)
	tr.end(id, map[string]float64{"ads": float64(out.ads), "messages": float64(out.messages)})
	if err != nil {
		return sm, out, err
	}

	ch := out.channel
	out.datagrams = ch.Deliveries + ch.Lost + ch.Faded + ch.Collided
	out.dupes, out.evictions = sm.Metrics.Duplicates(), sm.Metrics.Evictions()
	out.fp = fingerprint{
		set: true, events: out.events, channel: ch, messages: out.messages,
		rateBits: math.Float64bits(out.rate), timeBits: math.Float64bits(out.dtime),
	}
	if tr != nil {
		out.snap = sm.Registry.Snapshot()
	}
	return sm, out, nil
}

// rusage reads the process's resource usage; the zero value if the call fails.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

const mb = 1 << 20

// simRunner runs reps of one simulation workload, cycling through its input
// sets, and checks each scenario's fingerprint against the first time that
// input ran.
type simRunner struct {
	sets      [][]scenarioInput
	ref       [][]fingerprint // per input set, per scenario
	attempted int
	failed    int
	notes     []string
}

func (r *simRunner) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// rep runs every scenario of input set k once. End-to-end samples go to e2e
// and, on a traced rep, layer samples to layers; either may be nil. One
// operation is one scenario run.
func (r *simRunner) rep(k int, eng engine, tr *tracer, e2e, layers samples) {
	if r.ref == nil {
		r.ref = make([][]fingerprint, len(r.sets))
	}
	inputs := r.sets[k]
	if r.ref[k] == nil {
		r.ref[k] = make([]fingerprint, len(inputs))
	}
	ref := r.ref[k]
	sims := make([]*experiment.Sim, 0, len(inputs))
	var outs []scenarioOutcome

	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin("rep", -1)
	cpu0 := cpuSeconds()
	for i, in := range inputs {
		r.attempted++
		sm, out, err := runScenario(in, eng, tr, root)
		sims = append(sims, sm)
		outs = append(outs, out)
		switch {
		case err != nil:
			r.fail("%v", err)
		case !ref[i].set:
			ref[i] = out.fp
		case ref[i] != out.fp:
			r.fail("%s: fingerprint differs from the first run of this input (workers=%d shards=%d)",
				in.sc.Name, eng.workers, eng.shards)
		}
	}
	cpu := cpuSeconds() - cpu0
	tr.end(root, nil)
	runtime.ReadMemStats(&ms1)

	// Retained heap: what the finished simulations still hold, after a
	// forced collection and outside every timed interval.
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	runtime.KeepAlive(sims)

	var tot scenarioOutcome
	for _, o := range outs {
		tot.build += o.build
		tot.schedule += o.schedule
		tot.run += o.run
		tot.report += o.report
		tot.ads += o.ads
		tot.rate += o.rate
		tot.dtime += o.dtime
		tot.p50 += o.p50
		tot.p95 += o.p95
		tot.messages += o.messages
		tot.datagrams += o.datagrams
	}
	ads := float64(max(tot.ads, 1))
	if e2e != nil {
		e2e.add("setup_s", tot.build.Seconds())
		e2e.add("wall_s", (tot.build + tot.schedule + tot.run + tot.report).Seconds())
		e2e.add("cpu_ms_per_ad", 1000*cpu/ads)
		e2e.add("retained_heap_mb", float64(ms2.HeapAlloc)/mb)
		// The simulated metrics are exact functions of the inputs: they are
		// sampled over the first cycle of the input sets only, so that they
		// repeat for a seed however many reps the host had time for.
		if len(e2e["delivery_rate_pct"]) < len(r.sets) {
			e2e.add("delivery_rate_pct", tot.rate/ads)
			e2e.add("delivery_time_s", tot.dtime/ads)
			e2e.add("delivery_p50_ms", 1000*tot.p50/ads)
			e2e.add("delivery_p95_ms", 1000*tot.p95/ads)
			e2e.add("messages_per_ad", float64(tot.messages)/ads)
			e2e.add("datagrams_per_ad", float64(tot.datagrams)/ads)
		}
	}
	if layers != nil {
		layers.add("experiment.build_s", tot.build.Seconds())
		layers.add("experiment.schedule_ads_s", tot.schedule.Seconds())
		layers.add("sim.engine_run_s", tot.run.Seconds())
		layers.add("metrics.report_s", tot.report.Seconds())
		layers.add("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/mb)
		layers.add("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		layers.add("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		addSimLayerTimers(layers, outs, tot.run.Seconds())
		if k == 0 { // counts of one input set repeat exactly for a seed
			addSimLayerCounts(layers, outs)
		}
	}
}

// buildAll times one more experiment.Build of every scenario and drops the
// simulations unrun.
func (r *simRunner) buildAll(eng engine) (time.Duration, error) {
	var total time.Duration
	for _, in := range r.sets[0] {
		sc := in.sc
		sc.Workers, sc.Shards = eng.workers, eng.shards
		t0 := time.Now()
		if _, err := sc.Build(); err != nil {
			return 0, fmt.Errorf("%s: build: %w", sc.Name, err)
		}
		total += time.Since(t0)
	}
	runtime.GC()
	return total, nil
}

// addSimLayerCounts reads the program's own counters — the channel's
// statistics, the collector's tallies and the sim_*/radio_* registry snapshot
// — summed over the rep's scenarios.
func addSimLayerCounts(layers samples, outs []scenarioOutcome) {
	var events, batches, batchItems, broadcasts, deliveries, bytes, rebuilds, evictions, dupes, postpones float64
	for _, o := range outs {
		events += float64(o.events)
		broadcasts += float64(o.channel.Broadcasts)
		deliveries += float64(o.channel.Deliveries)
		bytes += float64(o.channel.BytesSent)
		evictions += float64(o.evictions)
		dupes += float64(o.dupes)
		batches += float64(o.snap.Counters["sim_batches_total"])
		batchItems += o.snap.Histograms["sim_batch_size"].Sum
		rebuilds += float64(o.snap.Counters["radio_grid_rebuilds_total"])
		postpones += float64(o.snap.Histograms["sim_postpone_delay_seconds"].Count)
	}
	layers.add("sim.events", events)
	layers.add("sim.batches", batches)
	layers.add("sim.batch_size_mean", ratio(batchItems, batches))
	layers.add("radio.broadcasts", broadcasts)
	layers.add("radio.deliveries", deliveries)
	layers.add("radio.bytes_sent", bytes)
	layers.add("radio.grid_rebuilds", rebuilds)
	layers.add("core.evictions", evictions)
	layers.add("core.duplicates", dupes)
	layers.add("core.postponements", postpones)
	layers.add("core.duplicate_ratio", ratio(dupes, deliveries))
}

// addSimLayerTimers reads the busy time the program's own registry recorded,
// summed over the rep's scenarios, and the share of Engine.Run it explains.
func addSimLayerTimers(layers samples, outs []scenarioOutcome, engineRun float64) {
	var prepare, decide, commit, rebuild, util float64
	for _, o := range outs {
		prepare += o.snap.Histograms["sim_phase_prepare_seconds"].Sum
		decide += o.snap.Histograms["sim_phase_decide_seconds"].Sum
		commit += o.snap.Histograms["sim_phase_commit_seconds"].Sum
		rebuild += o.snap.Histograms["radio_grid_rebuild_seconds"].Sum
		util += o.snap.Gauges["sim_worker_utilization"]
	}
	layers.add("sim.phase_prepare_s", prepare)
	layers.add("sim.phase_decide_s", decide)
	layers.add("sim.phase_commit_s", commit)
	layers.add("radio.grid_rebuild_s", rebuild)
	layers.add("sim.worker_utilization", util/float64(len(outs)))
	layers.add("sim.attributed_share", ratio(prepare+decide+commit+rebuild, engineRun))
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
