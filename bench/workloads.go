package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"instantad/internal/campaign"
	"instantad/internal/core"
	"instantad/internal/experiment"
	"instantad/internal/geo"
	"instantad/internal/rng"
	"instantad/internal/workload"
)

// Workload names, as BENCHMARK.json and later issues refer to them.
const (
	wlFig7      = "fig7_sweep"
	wlAdStorm   = "ad_storm"
	wlCityScale = "city_scale"
	wlLiveFleet = "live_fleet"
)

// sizing holds every size a workload is built to. fullSizing is the
// benchmark; the tests run a scaled-down one.
type sizing struct {
	fig7Sizes            []int
	stormPeers, stormAds int
	cityPeers, cityAds   int
	fleetNodes           int
	fleetRate            float64 // ads per second
	fleetDrain           time.Duration
	fleetBoots           int // NewFleet calls a timed run takes its set-up median over
	fleetMinWindow       time.Duration
	inputSets            int // distinct inputs a simulation run cycles its reps through
	setups               int // Build samples a timed simulation run takes its set-up median over
	probeBatches         int // timed batches a layer probe takes its median over
}

var fullSizing = sizing{
	fig7Sizes:  []int{100, 300, 1000},
	stormPeers: 1000, stormAds: 300,
	cityPeers: 30000, cityAds: 30,
	fleetNodes: 1000, fleetRate: 10, fleetDrain: 3 * time.Second, fleetBoots: 11,
	fleetMinWindow: 2 * time.Second,
	inputSets:      4, setups: 15, probeBatches: 5,
}

// engine is the simulator's parallelism setting.
type engine struct{ workers, shards int }

// adInput is one scheduled advertisement: when, where and what.
type adInput struct {
	t    float64
	at   geo.Point
	spec core.AdSpec
}

// scenarioInput is everything the program is handed for one simulation.
type scenarioInput struct {
	sc  experiment.Scenario
	ads []adInput
	// interestSeed, when non-zero, seeds the peers' interest sets (the
	// popularity mechanism only counts interested peers).
	interestSeed uint64
}

// base is the canonical scenario with the shortened tail every simulation
// benchmark in this repository uses: the ad's life cycle fits in SimTime.
func base() experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.SimTime = 300
	sc.D = 120
	return sc
}

// fig7Inputs reproduces the paper's Fig. 7 sweep: every protocol at every
// network size on the canonical field, one ad issued at the field centre.
func fig7Inputs(seed uint64, sz sizing) []scenarioInput {
	rnd := rng.New(seed).Split("fig7")
	var in []scenarioInput
	for _, proto := range core.AllProtocols() {
		for _, n := range sz.fig7Sizes {
			sc := base()
			sc.Name = fmt.Sprintf("fig7/%v/N=%d", proto, n)
			sc.Protocol = proto
			sc.NumPeers = n
			sc.Seed = rnd.Uint64()
			in = append(in, scenarioInput{sc: sc, ads: []adInput{{
				t:    sc.IssueTime,
				at:   geo.Point{X: sc.FieldW / 2, Y: sc.FieldH / 2},
				spec: core.AdSpec{R: sc.R, D: sc.D, Category: sc.Category, Text: "scenario advertisement"},
			}}})
		}
	}
	return in
}

// stormInputs is the many-ads regime: overlapping ads an eighth of a round
// apart in the central half of the canonical field, with the popularity
// sketches on, so caches overflow and eviction and ranking do real work.
func stormInputs(seed uint64, sz sizing) []scenarioInput {
	rnd := rng.New(seed).Split("ad_storm")
	sc := base()
	sc.Name = "ad_storm"
	sc.Protocol = core.GossipOpt
	sc.NumPeers = sz.stormPeers
	sc.CacheK = 10
	sc.Popularity = core.PopularityConfig{
		Enabled: true, F: 8, L: 32, SketchSeed: rnd.Uint64(),
		RInc: 50, DInc: 10, RMax: 800, DMax: 240,
	}
	sc.Seed = rnd.Uint64()
	gap := sc.RoundTime / 8
	// The last ad's measured life cycle (its initial D) ends before SimTime.
	sc.SimTime = math.Ceil(sc.IssueTime + float64(sz.stormAds)*gap + sc.D + 30)
	in := scenarioInput{sc: sc, interestSeed: rnd.Uint64()}
	for i := 0; i < sz.stormAds; i++ {
		in.ads = append(in.ads, adInput{
			t: sc.IssueTime + float64(i)*gap,
			at: geo.Point{
				X: rnd.Range(sc.FieldW/4, 3*sc.FieldW/4),
				Y: rnd.Range(sc.FieldH/4, 3*sc.FieldH/4),
			},
			spec: workload.RandomSpec(rnd, i, sc.R, sc.D, 0.8),
		})
	}
	return []scenarioInput{in}
}

// cityInputs blows the canonical scenario up at the paper's peer density:
// the field side grows with sqrt(N/300), and a few ads are spread over the
// whole field a round apart, so work that grows with N dominates. The ads sit
// one per cell of a grid, jittered inside the cell and issued in shuffled
// order, with every advertising area wholly on the field: uniform placement
// would let the number of ads cut off by the field's edge, not the program,
// decide messages per ad from one seed to the next.
func cityInputs(seed uint64, sz sizing) []scenarioInput {
	rnd := rng.New(seed).Split("city_scale")
	sc := base()
	sc.Name = "city_scale"
	sc.Protocol = core.GossipOpt
	sc.NumPeers = sz.cityPeers
	side := 1500 * math.Sqrt(float64(sz.cityPeers)/300)
	sc.FieldW, sc.FieldH = side, side
	sc.Seed = rnd.Uint64()
	in := scenarioInput{sc: sc}
	cols := int(math.Ceil(math.Sqrt(float64(sz.cityAds))))
	rows := (sz.cityAds + cols - 1) / cols
	margin := math.Min(sc.R, side/4)
	cw, chh := (side-2*margin)/float64(cols), (side-2*margin)/float64(rows)
	for i, cell := range rnd.Perm(cols * rows)[:sz.cityAds] {
		x0 := margin + float64(cell%cols)*cw
		y0 := margin + float64(cell/cols)*chh
		in.ads = append(in.ads, adInput{
			t:    sc.IssueTime + float64(i)*sc.RoundTime,
			at:   geo.Point{X: rnd.Range(x0, x0+cw), Y: rnd.Range(y0, y0+chh)},
			spec: workload.RandomSpec(rnd, i, sc.R, sc.D, 0.8),
		})
	}
	sc.SimTime = math.Ceil(in.ads[len(in.ads)-1].t + sc.D + 30)
	in.sc = sc
	return []scenarioInput{in}
}

// simInputs generates a simulation workload's input sets from the seed — a
// run cycles its reps through them, so one run averages over several draws of
// the inputs — and the engine setting it runs under: the CLIs' default
// (workers = GOMAXPROCS, one shard) except on city_scale, which is the sharded
// engine's target.
func simInputs(name string, seed uint64, sz sizing) ([][]scenarioInput, engine, error) {
	procs := runtime.GOMAXPROCS(0)
	var gen func(uint64, sizing) []scenarioInput
	eng := engine{workers: procs, shards: 1}
	switch name {
	case wlFig7:
		gen = fig7Inputs
	case wlAdStorm:
		gen = stormInputs
	case wlCityScale:
		gen, eng.shards = cityInputs, procs
	default:
		return nil, engine{}, fmt.Errorf("bench: %q is not a simulation workload", name)
	}
	sets := make([][]scenarioInput, sz.inputSets)
	for k := range sets {
		sets[k] = gen(rng.New(seed).SplitIndex("input-set", k).Uint64(), sz)
	}
	return sets, eng, nil
}

// fleetAd is one open-loop injection: due that long after the window opens.
type fleetAd struct {
	due    time.Duration
	center geo.Point
	spec   core.AdSpec
}

// fleetInput is the live workload: a fleet and an injection schedule.
type fleetInput struct {
	cfg    campaign.FleetConfig
	ads    []fleetAd
	window time.Duration // injection lasts this long
	drain  time.Duration // then probes are swept this much longer
}

const (
	fleetAdRadius = 500.0
	fleetAdLife   = 10.0 // seconds
)

// fleetInputs schedules ads at a fixed rate for the window, at seed-drawn
// centres whose whole area lies on the fleet's grid.
func fleetInputs(seed uint64, sz sizing, window time.Duration) fleetInput {
	rnd := rng.New(seed).Split("live_fleet")
	in := fleetInput{
		cfg: campaign.FleetConfig{
			Nodes: sz.fleetNodes, Spacing: 150, Range: 230,
			RoundTime: 100 * time.Millisecond, Loss: 0.1, Probes: 32,
			Seed: rnd.Uint64() | 1,
		},
		window: window,
		drain:  sz.fleetDrain,
	}
	side := math.Ceil(math.Sqrt(float64(sz.fleetNodes))) * in.cfg.Spacing
	margin := math.Min(fleetAdRadius, side/2)
	gap := time.Duration(float64(time.Second) / sz.fleetRate)
	for i := 0; time.Duration(i)*gap < window; i++ {
		in.ads = append(in.ads, fleetAd{
			due:    time.Duration(i) * gap,
			center: geo.Point{X: rnd.Range(margin, side-margin), Y: rnd.Range(margin, side-margin)},
			spec:   workload.RandomSpec(rnd, i, fleetAdRadius, fleetAdLife, 0.8),
		})
	}
	return in
}
