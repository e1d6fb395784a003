package instantad_test

import (
	"hash/fnv"
	"math"
	"reflect"
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
}

// wideRounds puts every peer's round (or entry timer) on one slot per round,
// so a batch is hundreds of events wide — every decide of a round reads the
// state before any commit of it — where the default 64 slots make batches of
// about five. 300 peers suffice for the round-based variants (one batch is
// every peer's round); under Optimization Mechanism 2 postponement spreads
// the entry timers over several rounds, so those cases also raise the
// population until some slots are as wide.
func wideRounds(sc *experiment.Scenario) {
	sc.RoundSlots = 1
	if sc.Protocol == core.GossipOpt2 || sc.Protocol == core.GossipOpt {
		sc.NumPeers = 2000
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
		Stats: sm.Net.Channel().Stats(),
	}
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

// manhattanFast is fast Manhattan traffic: peers sweep across grid cells at
// nearly every refresh.
func manhattanFast(sc *experiment.Scenario) {
	sc.Mobility = experiment.Manhattan
	sc.SpeedMean = 25
	sc.SpeedDelta = 5
}

// goldenPrint is what the engine goldens pin: the events dispatched, the
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

// TestEngineGoldens pins whole runs to what they produced at the commits
// named below, the trace hash showing that every observer was told the same
// things in the same order.
//
// The comparator rows (values taken at 97a4775) predate the two families'
// allocation-free round loops. Relevance Exchange's encounter test,
// refresh/expiry order and broadcast order all feed the channel's shared
// stream, so any reordering moves these. The async row runs the impaired
// channel with churn, where frames are lost, receivers go offline in flight
// and slots time out: a recycled frame reaching a second receiver, or a
// re-armed timer reclaiming the wrong connection, would move it.
//
// The other rows (values taken at 337c983 with workers = shards = 1) are the
// cases of the three gates that held the intra-run parallel engine
// bit-identical to the sequential one — across worker counts, across stripe
// counts (a case those two shared is one row) and on the road/RSU family —
// and TestAsyncChurnSmoke's scenario, taken before that engine was deleted
// and unchanged by its deletion. What they hold now is the batch dispatch
// itself: prepare, every decide, every commit. The wide rows put a whole
// round (300–2 000 events) in one batch.
func TestEngineGoldens(t *testing.T) {
	short := func(mut func(*experiment.Scenario)) experiment.Scenario {
		sc := experiment.DefaultScenario()
		sc.SimTime = 300
		sc.D = 120
		mut(&sc)
		return sc
	}
	long := func(muts ...func(*experiment.Scenario)) experiment.Scenario {
		sc := experiment.DefaultScenario()
		sc.SimTime = 400
		for _, mut := range muts {
			mut(&sc)
		}
		return sc
	}
	proto := func(p core.Protocol) func(*experiment.Scenario) {
		return func(sc *experiment.Scenario) { sc.Protocol = p }
	}
	async := func(k int) func(*experiment.Scenario) {
		return func(sc *experiment.Scenario) { asyncImpaired(sc, k) }
	}
	road := func(sc *experiment.Scenario) { sc.Mobility = experiment.Road }
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
		{"async-k2-churn-impaired/short", short(async(2)), goldenPrint{52681, radio.Stats{Broadcasts: 32582, Deliveries: 26782, Lost: 3267, Faded: 2526, Collided: 2, BytesSent: 669845, AirtimeSec: 2.679380000001062},
			1929, 0x40548aea2ba8aea3, 0x40439769ec3fe874, 0xa057150a50ec0786}},

		{"gossiping", long(proto(core.Gossip)), goldenPrint{29398, radio.Stats{Broadcasts: 4991, Deliveries: 55494, BytesSent: 384307, AirtimeSec: 1.5372279999998972},
			4991, 0x4059000000000000, 0x400084010852bf99, 0x67c3129ee22c3316}},
		{"optimized-gossiping-1", long(proto(core.GossipOpt1)), goldenPrint{26725, radio.Stats{Broadcasts: 2318, Deliveries: 23380, BytesSent: 178486, AirtimeSec: 0.7139439999999642},
			2318, 0x4058d21f3277487d, 0x403ed822d0862a6f, 0x467e4bc3ae80bdc7}},
		{"optimized-gossiping-2", long(proto(core.GossipOpt2)), goldenPrint{3513, radio.Stats{Broadcasts: 585, Deliveries: 5542, BytesSent: 45045, AirtimeSec: 0.18018000000000126},
			585, 0x4059000000000000, 0x40307831aa2a0f2a, 0x448fa9e73eab5e7d}},
		{"optimized-gossiping", long(proto(core.GossipOpt)), goldenPrint{4060, radio.Stats{Broadcasts: 421, Deliveries: 3866, BytesSent: 32417, AirtimeSec: 0.1296680000000008},
			421, 0x4058e90f993ba43e, 0x40422534c5682b82, 0x14b7d657836cdf1f}},
		{"impaired-channel-churn", long(proto(core.GossipOpt), impaired), goldenPrint{4958, radio.Stats{Broadcasts: 424, Deliveries: 2553, Lost: 337, Faded: 460, Collided: 2, BytesSent: 32648, AirtimeSec: 0.13059200000000082},
			424, 0x4057ecbb2ecbb2ed, 0x4048e6f40b598989, 0x9594c00534055dd9}},
		// The async pairwise family: handshakes span instants, timers reclaim
		// exchange slots, and churn plus losses exercise every timeout path.
		{"async-k1-churn-impaired", long(async(1)), goldenPrint{56688, radio.Stats{Broadcasts: 30539, Deliveries: 25000, Lost: 3083, Faded: 2451, Collided: 4, BytesSent: 629919, AirtimeSec: 2.519676000001053},
			1835, 0x40560b02c0b02c0b, 0x404a3e9f8ed8e054, 0xe28f1146ad2da038}},
		{"async-k2-churn-impaired", long(async(2)), goldenPrint{69660, radio.Stats{Broadcasts: 42989, Deliveries: 35341, Lost: 4300, Faded: 3336, Collided: 8, BytesSent: 957247, AirtimeSec: 3.8289880000016905},
			3499, 0x4056c285f6d30a18, 0x40461d2816cdc1c4, 0x217aab7f3a849e22}},
		{"async-k3-churn-impaired", long(async(3)), goldenPrint{73093, radio.Stats{Broadcasts: 46263, Deliveries: 38021, Lost: 4594, Faded: 3633, Collided: 12, BytesSent: 1047053, AirtimeSec: 4.188212000001806},
			3985, 0x40576318c6318c63, 0x4046e3cd187cb6ba, 0x6ddc74d22918d3c3}},
		{"async-k2-churn-impaired/sim-time=300", long(async(2), func(sc *experiment.Scenario) { sc.SimTime = 300 }), goldenPrint{52677, radio.Stats{Broadcasts: 32609, Deliveries: 26852, Lost: 3269, Faded: 2477, Collided: 6, BytesSent: 791167, AirtimeSec: 3.164668000001026},
			3499, 0x4056c285f6d30a18, 0x40461d2816cdc1c4, 0x83a23cf9f9df7034}},
		{"relevance-exchange-churn-impaired", long(relevanceImpaired), goldenPrint{29739, radio.Stats{Broadcasts: 4739, Deliveries: 35454, Lost: 4645, Faded: 6336, Collided: 30, BytesSent: 364903, AirtimeSec: 1.4596119999999035},
			4739, 0x405803ab95900eae, 0x40251cfaa0bf4273, 0x5f4c95996668e5c}},
		{"high-mobility-manhattan", long(proto(core.GossipOpt), manhattanFast), goldenPrint{5690, radio.Stats{Broadcasts: 433, Deliveries: 2059, BytesSent: 33341, AirtimeSec: 0.13336400000000084},
			433, 0x4058447447447447, 0x40397669d5d15f1f, 0x9f1732576541848b}},
		{"wide-gossiping", long(proto(core.Gossip), wideRounds), goldenPrint{29258, radio.Stats{Broadcasts: 4559, Deliveries: 50580, BytesSent: 351043, AirtimeSec: 1.404171999999908},
			4559, 0x4058e90f993ba43e, 0x4027224bfd21bdba, 0xf8f3e64598be138e}},
		{"wide-gossiping-manhattan", long(proto(core.Gossip), manhattanFast, wideRounds), goldenPrint{27155, radio.Stats{Broadcasts: 2471, Deliveries: 13075, BytesSent: 190267, AirtimeSec: 0.7610679999999603},
			2471, 0x4059000000000000, 0x4021831a6271272a, 0x220e1adcb3b589fa}},
		{"wide-optimized-gossiping", long(proto(core.GossipOpt), wideRounds), goldenPrint{9108, radio.Stats{Broadcasts: 601, Deliveries: 37088, BytesSent: 46277, AirtimeSec: 0.1851080000000013},
			601, 0x4059000000000000, 0x403165ab629f2bb4, 0xffad28076d3cd90b}},
		{"wide-optimized-gossiping-impaired", long(proto(core.GossipOpt), func(sc *experiment.Scenario) {
			sc.Collisions = true
			sc.LossRate = 0.1
			sc.FadeZone = 20
		}, wideRounds), goldenPrint{10621, radio.Stats{Broadcasts: 792, Deliveries: 33079, Lost: 4978, Faded: 6713, Collided: 4744, BytesSent: 60984, AirtimeSec: 0.24393600000000182},
			792, 0x4058fc9015ff7337, 0x40345a3938d4b5a5, 0x91419b3c4c530dcc}},
		{"wide-async-k2-churn-impaired", long(async(2), wideRounds), goldenPrint{44959, radio.Stats{Broadcasts: 27519, Deliveries: 21981, Lost: 2760, Faded: 2409, Collided: 258, BytesSent: 545255, AirtimeSec: 2.1810200000008524},
			1363, 0x4054850beda61430, 0x405105187233cbb6, 0x9765bc323eb37ab7}},
		// The urban family: road-constrained mobility, roadside units with
		// their wired backhaul round (a plain event beside the batches), and
		// the road-coverage measurer.
		{"road-no-rsu", long(road), goldenPrint{3592, radio.Stats{Broadcasts: 334, Deliveries: 2102, BytesSent: 25718, AirtimeSec: 0.10287200000000057},
			334, 0x4056bf2d0c15f968, 0x4047efd39867f386, 0xf888c56ce511d068}},
		{"road-rsu-spread", long(road, func(sc *experiment.Scenario) {
			sc.NumRSU = 4
			sc.RSURange = 200
		}), goldenPrint{4297, radio.Stats{Broadcasts: 426, Deliveries: 3343, BytesSent: 32802, AirtimeSec: 0.13120800000000082},
			426, 0x405809d89d89d89e, 0x4033b7c226351f37, 0xb88a6b9a75dad144}},
		{"road-rsu-opt2-impaired", long(road, proto(core.GossipOpt2), func(sc *experiment.Scenario) {
			sc.NumRSU = 6
			sc.RSUPlacement = "degree"
			sc.LossRate = 0.1
			sc.ChurnOnMean = 300
			sc.ChurnOffMean = 60
		}), goldenPrint{3173, radio.Stats{Broadcasts: 329, Deliveries: 1586, Lost: 163, BytesSent: 25333, AirtimeSec: 0.10133200000000056},
			329, 0x40523d872441ec39, 0x404b09be5955a891, 0xe7a015bc43508780}},
		{"road-rsu-wide", long(road, proto(core.GossipOpt1), func(sc *experiment.Scenario) {
			sc.NumRSU = 4
			sc.RSURange = 200
		}, wideRounds), goldenPrint{27009, radio.Stats{Broadcasts: 1910, Deliveries: 14573, BytesSent: 147070, AirtimeSec: 0.5882799999999744},
			1910, 0x4057ee7ee7ee7ee8, 0x4030dda155f72067, 0x41806ef67ccb034c}},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			if got := runGolden(t, g.sc); got != g.want {
				t.Errorf("run moved off its golden:\n  got  %#v\n  want %#v", got, g.want)
			}
		})
	}
}
