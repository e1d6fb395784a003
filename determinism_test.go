package instantad_test

import (
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"instantad/internal/core"
	"instantad/internal/experiment"
	"instantad/internal/geo"
	"instantad/internal/metrics"
	"instantad/internal/radio"
	"instantad/internal/trace"
)

// fingerprint is everything a run exposes that the determinism contract
// covers: the full per-ad metrics report, the derived Result fields, and the
// raw channel counters.
type fingerprint struct {
	Result experiment.Result
	Stats  radio.Stats
	// PoolBatches counts the split-event batches the run decided on the
	// worker pool (sim_batches_total − sim_batches_inline_total). It is not
	// part of the determinism contract — the gates compare Result and Stats —
	// but a workers/shards gate whose parallel leg reads 0 here compared the
	// inline path with itself.
	PoolBatches uint64
}

// wideRounds puts every peer's round (or entry timer) on one slot per round,
// so batches are wide enough to leave the executor's inline path; at the
// default 64 slots a batch of the default scenario holds about five events
// and never reaches the pool. 300 peers suffice for the round-based variants
// (one batch is every peer's round); under Optimization Mechanism 2
// postponement spreads the entry timers over several rounds, so those cases
// also raise the population until some slots are wide enough.
func wideRounds(sc *experiment.Scenario) {
	sc.RoundSlots = 1
	if sc.Protocol == core.GossipOpt2 || sc.Protocol == core.GossipOpt {
		sc.NumPeers = 2000
	}
}

// checkPoolUse asserts which path decided: a sequential reference run never
// uses the pool; the parallel leg of a wide-rounds case must.
func checkPoolUse(t *testing.T, sc experiment.Scenario, fp fingerprint) {
	t.Helper()
	switch {
	case sc.Workers == 1 && fp.PoolBatches != 0:
		t.Errorf("workers=1 decided %d batches on the pool", fp.PoolBatches)
	case sc.Workers > 1 && sc.RoundSlots == 1 && fp.PoolBatches == 0:
		t.Errorf("workers=%d shards=%d: no batch reached the pool; the gate compared inline with inline",
			sc.Workers, sc.Shards)
	}
}

// runProbe builds sc, lets attach (if any) hook observers onto the built
// simulation, issues the scenario's one ad at the field centre, runs to
// SimTime and returns the simulation with the ad's report.
func runProbe(t *testing.T, sc experiment.Scenario, attach func(*experiment.Sim)) (*experiment.Sim, metrics.AdReport) {
	t.Helper()
	sm, err := sc.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if attach != nil {
		attach(sm)
	}
	center := geo.Point{X: sc.FieldW / 2, Y: sc.FieldH / 2}
	h := sm.ScheduleAd(sc.IssueTime, center, core.AdSpec{
		R: sc.R, D: sc.D, Category: sc.Category, Text: "determinism probe",
	})
	sm.Engine.Run(sc.SimTime)
	if h.Err != nil {
		t.Fatalf("issue: %v", h.Err)
	}
	rep, err := sm.Metrics.Report(h.Ad.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	return sm, rep
}

func runFingerprint(t *testing.T, sc experiment.Scenario) fingerprint {
	t.Helper()
	sm, rep := runProbe(t, sc, nil)
	return fingerprint{
		Result: experiment.Result{
			Report:       rep,
			DeliveryRate: rep.DeliveryRate,
			DeliveryTime: rep.DeliveryTimes.Mean,
			Messages:     float64(rep.Messages),
			Bytes:        float64(rep.Bytes),
			Utilization:  sm.Net.Channel().Utilization(),
			LoadGini:     sm.Metrics.LoadGini(),
			Duplicates:   sm.Metrics.Duplicates(),
			Evictions:    sm.Metrics.Evictions(),
			Coverage:     rep.RoadCoverage,
		},
		Stats:       sm.Net.Channel().Stats(),
		PoolBatches: poolBatches(sm),
	}
}

func poolBatches(sm *experiment.Sim) uint64 {
	c := sm.Registry.Snapshot().Counters
	return c["sim_batches_total"] - c["sim_batches_inline_total"]
}

// TestRunDeterminism is the regression gate for the allocation-free hot
// path: running the same scenario twice with the same seed must produce
// bit-for-bit identical metrics and channel counters. Pooled events, the
// flat spatial grid, batched frame delivery and copy-on-write ad snapshots
// all reorder *work*, and this test pins down that none of them reorders
// *results* — RNG draws, delivery times and FIFO tie-breaks included.
func TestRunDeterminism(t *testing.T) {
	base := experiment.DefaultScenario()
	base.SimTime = 400 // scaled down: full life cycle, CI-friendly runtime

	cases := []struct {
		name string
		mut  func(*experiment.Scenario)
	}{
		{"optimized-gossiping", func(sc *experiment.Scenario) {}},
		{"gossiping", func(sc *experiment.Scenario) { sc.Protocol = core.Gossip }},
		{"flooding", func(sc *experiment.Scenario) { sc.Protocol = core.Flooding }},
		{"opt2-collisions-loss", func(sc *experiment.Scenario) {
			sc.Protocol = core.GossipOpt2
			sc.Collisions = true
			sc.LossRate = 0.1
			sc.FadeZone = 20
		}},
		{"popularity", func(sc *experiment.Scenario) {
			sc.Protocol = core.GossipOpt
			sc.Popularity = core.PopularityConfig{
				Enabled: true, F: 16, L: 32, SketchSeed: 4242,
				RInc: 100, DInc: 30, RMax: 1000, DMax: 360,
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.mut(&sc)
			a := runFingerprint(t, sc)
			b := runFingerprint(t, sc)
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Errorf("channel stats diverged between identical runs:\n  first:  %+v\n  second: %+v", a.Stats, b.Stats)
			}
			if !reflect.DeepEqual(a.Result, b.Result) {
				t.Errorf("results diverged between identical runs:\n  first:  %+v\n  second: %+v", a.Result, b.Result)
			}
		})
	}
}

// impaired puts a scenario under the impaired channel + churn mix the
// round-based cases use.
func impaired(sc *experiment.Scenario) {
	sc.Collisions = true
	sc.LossRate = 0.1
	sc.FadeZone = 20
	sc.ChurnOnMean = 300
	sc.ChurnOffMean = 60
}

// asyncImpaired switches a scenario to the asynchronous pairwise protocol
// at the given exchange bound under the impaired mix.
func asyncImpaired(sc *experiment.Scenario, k int) {
	sc.Protocol = core.AsyncGossip
	sc.AsyncK = k
	impaired(sc)
}

// relevanceImpaired is the Relevance Exchange comparator under the impaired
// mix.
func relevanceImpaired(sc *experiment.Scenario) {
	sc.Protocol = core.RelevanceExchange
	impaired(sc)
}

// TestRunDeterminismAcrossWorkers is the parallel executor's equivalence
// gate: the same scenario must produce bit-for-bit identical metrics and
// channel counters whether round batches decide on one worker or many
// (including oversubscribed on a single core). The two-phase contract this
// verifies end to end: decisions draw only per-peer streams on shard-affine
// workers, every shared-stream draw and mutation happens in the sequential
// commit phase in scheduling order.
func TestRunDeterminismAcrossWorkers(t *testing.T) {
	base := experiment.DefaultScenario()
	base.SimTime = 400

	many := runtime.GOMAXPROCS(0) + 2 // >1 even on a single-core host

	cases := []struct {
		name string
		mut  func(*experiment.Scenario)
	}{
		{"gossiping", func(sc *experiment.Scenario) { sc.Protocol = core.Gossip }},
		{"optimized-gossiping-1", func(sc *experiment.Scenario) { sc.Protocol = core.GossipOpt1 }},
		{"optimized-gossiping-2", func(sc *experiment.Scenario) { sc.Protocol = core.GossipOpt2 }},
		{"optimized-gossiping", func(sc *experiment.Scenario) { sc.Protocol = core.GossipOpt }},
		{"impaired-channel", func(sc *experiment.Scenario) {
			sc.Protocol = core.GossipOpt
			sc.Collisions = true
			sc.LossRate = 0.1
			sc.FadeZone = 20
			sc.ChurnOnMean = 300
			sc.ChurnOffMean = 60
		}},
		// The async pairwise family is the hardest case for the two-phase
		// contract: handshakes span instants, timers reclaim exchange slots,
		// and churn plus losses exercise every timeout path. Each k under the
		// impaired channel must match bit for bit across worker counts.
		{"async-k1-churn-impaired", func(sc *experiment.Scenario) { asyncImpaired(sc, 1) }},
		{"async-k2-churn-impaired", func(sc *experiment.Scenario) { asyncImpaired(sc, 2) }},
		{"async-k3-churn-impaired", func(sc *experiment.Scenario) { asyncImpaired(sc, 3) }},
		// The Relevance Exchange comparator's rounds are plain events that share
		// Network-owned scratch; churn exercises its offline rounds.
		{"relevance-exchange-churn-impaired", relevanceImpaired},
		// The cases above decide every batch inline (≈ 5 events each). These
		// put whole rounds on one slot so the pool itself is compared with the
		// sequential path: a round-based variant, the per-entry timers, and the
		// async family's scans.
		{"wide-gossiping", func(sc *experiment.Scenario) { sc.Protocol = core.Gossip; wideRounds(sc) }},
		{"wide-optimized-gossiping-impaired", func(sc *experiment.Scenario) {
			sc.Protocol = core.GossipOpt
			sc.Collisions = true
			sc.LossRate = 0.1
			sc.FadeZone = 20
			wideRounds(sc)
		}},
		{"wide-async-k2-churn-impaired", func(sc *experiment.Scenario) { asyncImpaired(sc, 2); wideRounds(sc) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := base
			tc.mut(&seq)
			seq.Workers = 1
			par := seq
			par.Workers = many
			a := runFingerprint(t, seq)
			b := runFingerprint(t, par)
			checkPoolUse(t, seq, a)
			checkPoolUse(t, par, b)
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Errorf("channel stats diverged between workers=1 and workers=%d:\n  seq: %+v\n  par: %+v", many, a.Stats, b.Stats)
			}
			if !reflect.DeepEqual(a.Result, b.Result) {
				t.Errorf("results diverged between workers=1 and workers=%d:\n  seq: %+v\n  par: %+v", many, a.Result, b.Result)
			}
		})
	}
}

// TestRunDeterminismAcrossSeeds guards the inverse property: different seeds
// must actually change the run (a fingerprint that ignores the seed would
// make TestRunDeterminism vacuous).
func TestRunDeterminismAcrossSeeds(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.SimTime = 400
	a := runFingerprint(t, sc)
	sc.Seed++
	b := runFingerprint(t, sc)
	if reflect.DeepEqual(a, b) {
		t.Fatal("fingerprints identical across different seeds; determinism test cannot discriminate")
	}
}

// goldenPrint is what the comparator goldens pin: the events dispatched, the
// channel's counters, the frames broadcast, the bits of the two simulated
// averages, and an FNV-1a hash of the run's whole internal/trace stream —
// every observer callback in order, with its peer, ad, size, instant and
// position.
type goldenPrint struct {
	events             uint64
	stats              radio.Stats
	messages           uint64
	rateBits, timeBits uint64
	trace              uint64
}

func runGolden(t *testing.T, sc experiment.Scenario) goldenPrint {
	t.Helper()
	sum := fnv.New64a()
	var rec *trace.Recorder
	sm, rep := runProbe(t, sc, func(sm *experiment.Sim) {
		rec = trace.NewRecorder(sum, sm.Net.Channel())
		sm.Observe(rec)
	})
	if err := rec.Flush(); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return goldenPrint{
		events:   sm.Engine.Dispatched(),
		stats:    sm.Net.Channel().Stats(),
		messages: rep.Messages,
		rateBits: math.Float64bits(rep.DeliveryRate),
		timeBits: math.Float64bits(rep.DeliveryTimes.Mean),
		trace:    sum.Sum64(),
	}
}

// TestComparatorGoldens pins runs of the two comparator families to what they
// produced before their round loops stopped allocating (values taken at
// 97a4775). Relevance Exchange had no golden at all; its encounter test,
// refresh/expiry order and broadcast order all feed the channel's shared
// stream, so any reordering moves these. The async case runs the impaired
// channel with churn, where frames are lost, receivers go offline in flight
// and slots time out: a recycled frame reaching a second receiver, or a
// re-armed timer reclaiming the wrong connection, would move it, and the
// trace hash shows that every observer was told the same things in the same
// order.
func TestComparatorGoldens(t *testing.T) {
	short := func(mut func(*experiment.Scenario)) experiment.Scenario {
		sc := experiment.DefaultScenario()
		sc.SimTime = 300
		sc.D = 120
		mut(&sc)
		return sc
	}
	golden := []struct {
		name string
		sc   experiment.Scenario
		want goldenPrint
	}{
		{"relevance-exchange/N=100", short(func(sc *experiment.Scenario) {
			sc.Protocol, sc.NumPeers = core.RelevanceExchange, 100
		}), goldenPrint{6921, radio.Stats{Broadcasts: 620, Deliveries: 2323, BytesSent: 47740, AirtimeSec: 0.19096000000000135},
			620, 0x405630e61cc39873, 0x40357c074fb34a1a, 0x65daa8043c656463}},
		{"relevance-exchange/N=300", short(func(sc *experiment.Scenario) {
			sc.Protocol, sc.NumPeers = core.RelevanceExchange, 300
		}), goldenPrint{22195, radio.Stats{Broadcasts: 3894, Deliveries: 44097, BytesSent: 299838, AirtimeSec: 1.1993519999999247},
			3894, 0x4058b594d653594d, 0x400f2f2bcb758e09, 0xb090e764fc72667c}},
		{"async-k2-churn-impaired", short(func(sc *experiment.Scenario) { asyncImpaired(sc, 2) }), goldenPrint{52681, radio.Stats{Broadcasts: 32582, Deliveries: 26782, Lost: 3267, Faded: 2526, Collided: 2, BytesSent: 669845, AirtimeSec: 2.679380000001062},
			1929, 0x40548aea2ba8aea3, 0x40439769ec3fe874, 0xa057150a50ec0786}},
	}
	for _, g := range golden {
		if got := runGolden(t, g.sc); got != g.want {
			t.Errorf("%s: run moved off its golden:\n  got  %#v\n  want %#v", g.name, got, g.want)
		}
	}
}
