package main

import (
	"fmt"
	"runtime"
	"time"

	"instantad/internal/ads"
	"instantad/internal/campaign"
	"instantad/internal/stats"
)

// sweepEvery is how often the probe sets are polled; it bounds how finely a
// delivery latency is resolved.
const sweepEvery = 2 * time.Millisecond

// probeAd is one injected ad under observation.
type probeAd struct {
	id      ads.ID
	due     time.Time // when the schedule said to send it
	expires time.Time
	pending []int // probe nodes that have not shown the ad yet
}

// fleetOutcome is one live rep.
type fleetOutcome struct {
	boot, close  time.Duration
	wall         time.Duration // boot + window + drain + close
	cpuWindow    float64       // CPU seconds over the injection window
	heapMB       float64
	ads          int
	slots        int
	failed       int       // probe slots never reached
	latencies    []float64 // seconds, one per reached slot
	lateMax      time.Duration
	broadcasts   float64 // gossip decisions across the fleet
	datagrams    float64 // delivered + lost on the medium
	batchesSent  float64
	digestsSent  float64
	pullsSent    float64
	deferred     float64
	nodeDupes    float64
	nodeReceived float64
	delivered    float64
	lost         float64
	overflow     float64
	allocMB      float64
	gcCycles     float64
	gcPauseMs    float64
}

// runFleetRep boots a fresh fleet, injects the schedule in an open loop —
// every ad is timed from when it was due, not from when it was sent — and
// polls Fleet.Has over each ad's probe set until the drain ends. One
// operation is one probe slot; it fails if the probe never shows the ad
// before the ad expires or the drain ends.
func runFleetRep(in fleetInput, tr *tracer) (fleetOutcome, error) {
	var out fleetOutcome
	root := tr.begin("rep", -1)
	defer func() { tr.end(root, nil) }()

	id := tr.begin("campaign.new_fleet", root)
	t0 := time.Now()
	fl, err := campaign.NewFleet(in.cfg)
	out.boot = time.Since(t0)
	tr.end(id, map[string]float64{"nodes": float64(in.cfg.Nodes)})
	if err != nil {
		return out, fmt.Errorf("live_fleet: %w", err)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	node0, medium0 := fl.Totals(), fl.MediumStats()
	cpu0 := cpuSeconds()
	start := time.Now()
	windowEnd, end := start.Add(in.window), start.Add(in.window+in.drain)

	var live []*probeAd
	next := 0
	for tick := 0; ; tick++ {
		now := time.Now()
		if out.cpuWindow == 0 && !now.Before(windowEnd) {
			out.cpuWindow = cpuSeconds() - cpu0
		}
		if !now.Before(end) {
			break
		}
		for next < len(in.ads) && !start.Add(in.ads[next].due).After(now) {
			ad := in.ads[next]
			due := start.Add(ad.due)
			out.lateMax = max(out.lateMax, now.Sub(due))
			sid := tr.begin("campaign.inject", root)
			adID, origin, err := fl.Inject(ad.center, ad.spec)
			tr.end(sid, nil)
			if err != nil {
				_ = fl.Close() // Close cannot fail; the injection error is the one to report
				return out, fmt.Errorf("live_fleet: inject ad %d: %w", next, err)
			}
			p := &probeAd{id: adID, due: due, expires: due.Add(time.Duration(ad.spec.D * float64(time.Second)))}
			for _, n := range fl.ProbeSet(ad.center, ad.spec.R, in.cfg.Probes) {
				if n != origin { // the issuer has its own ad at once
					p.pending = append(p.pending, n)
				}
			}
			out.ads++
			out.slots += len(p.pending)
			live = append(live, p)
			next++
			now = time.Now()
		}

		sid := tr.begin("campaign.probe_sweep", root)
		polled := 0
		kept := live[:0]
		for _, p := range live {
			rest := p.pending[:0]
			for _, n := range p.pending {
				polled++
				if fl.Has(n, p.id) {
					out.latencies = append(out.latencies, time.Since(p.due).Seconds())
				} else {
					rest = append(rest, n)
				}
			}
			p.pending = rest
			switch {
			case len(rest) == 0:
			case now.After(p.expires):
				out.failed += len(rest)
			default:
				kept = append(kept, p)
			}
		}
		live = kept
		tr.end(sid, map[string]float64{"polled": float64(polled)})

		if wake := start.Add(time.Duration(tick+1) * sweepEvery); wake.After(time.Now()) {
			time.Sleep(time.Until(wake))
		}
	}
	for _, p := range live {
		out.failed += len(p.pending)
	}
	runtime.ReadMemStats(&ms1)
	node1, medium1 := fl.Totals(), fl.MediumStats()

	// Retained heap: the running fleet after a forced collection, outside
	// the window the CPU figure covers.
	var ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	out.heapMB = float64(ms2.HeapAlloc) / mb

	id = tr.begin("campaign.close", root)
	t0 = time.Now()
	_ = fl.Close() // always nil
	out.close = time.Since(t0)
	tr.end(id, nil)

	out.wall = out.boot + in.window + in.drain + out.close
	out.broadcasts = float64(node1.Broadcasts - node0.Broadcasts)
	out.batchesSent = float64(node1.BatchesSent - node0.BatchesSent)
	out.digestsSent = float64(node1.DigestsSent - node0.DigestsSent)
	out.pullsSent = float64(node1.PullsSent - node0.PullsSent)
	out.deferred = float64(node1.BudgetDeferred - node0.BudgetDeferred)
	out.nodeDupes = float64(node1.Duplicates - node0.Duplicates)
	out.nodeReceived = float64(node1.Received - node0.Received)
	out.delivered = float64(medium1.Delivered - medium0.Delivered)
	out.lost = float64(medium1.Lost - medium0.Lost)
	out.overflow = float64(medium1.QueueOverflow - medium0.QueueOverflow)
	out.datagrams = out.delivered + out.lost
	out.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mb
	out.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	out.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return out, nil
}

// bootFleet times one extra NewFleet and shuts the fleet down again, so a
// run reports set-up time as a median over several set-ups.
func bootFleet(in fleetInput) (time.Duration, error) {
	t0 := time.Now()
	fl, err := campaign.NewFleet(in.cfg)
	boot := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("live_fleet: %w", err)
	}
	_ = fl.Close() // always nil
	runtime.GC()
	return boot, nil
}

// addFleetSamples turns a live rep into end-to-end and layer samples.
func addFleetSamples(out fleetOutcome, e2e, layers samples) {
	ads := float64(max(out.ads, 1))
	if e2e != nil {
		e2e.add("setup_s", out.boot.Seconds())
		e2e.add("wall_s", out.wall.Seconds())
		e2e.add("cpu_ms_per_ad", 1000*out.cpuWindow/ads)
		e2e.add("retained_heap_mb", out.heapMB)
		e2e.add("delivery_rate_pct", 100*ratio(float64(out.slots-out.failed), float64(out.slots)))
		e2e.add("messages_per_ad", out.broadcasts/ads)
		e2e.add("datagrams_per_ad", out.datagrams/ads)
		if len(out.latencies) > 0 {
			e2e.add("delivery_time_s", stats.Mean(out.latencies))
			e2e.add("delivery_p50_ms", 1000*stats.Percentile(out.latencies, 50))
			e2e.add("delivery_p95_ms", 1000*stats.Percentile(out.latencies, 95))
		}
	}
	if layers != nil {
		layers.add("campaign.new_fleet_s", out.boot.Seconds())
		layers.add("campaign.close_s", out.close.Seconds())
		layers.add("node.batches_sent", out.batchesSent)
		layers.add("node.digests_sent", out.digestsSent)
		layers.add("node.pulls_sent", out.pullsSent)
		layers.add("node.budget_deferred", out.deferred)
		layers.add("node.duplicates", out.nodeDupes)
		layers.add("node.duplicate_ratio", ratio(out.nodeDupes, out.nodeReceived))
		layers.add("memnet.delivered", out.delivered)
		layers.add("memnet.lost", out.lost)
		layers.add("memnet.queue_overflow", out.overflow)
		layers.add("memnet.loss_ratio", ratio(out.lost, out.datagrams))
		layers.add("runtime.alloc_mb", out.allocMB)
		layers.add("runtime.gc_cycles", out.gcCycles)
		layers.add("runtime.gc_pause_ms", out.gcPauseMs)
		layers.add("bench.generator_late_ms_max", float64(out.lateMax)/1e6)
		// p99 is quoted only with at least ten samples beyond it.
		if highestPercentile(len(out.latencies)) >= 99 {
			layers.add("campaign.delivery_p99_ms", 1000*stats.Percentile(out.latencies, 99))
		}
	}
}
