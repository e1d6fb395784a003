package metrics_test

import (
	"math"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/metrics"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/roadnet"
	"instantad/internal/sim"
)

// The collector finds its candidates through the radio's grid snapshot,
// which it may read at any age but must never refresh, and keeps a ledger of
// only the peers that can matter to an ad. These tests pin the ways that
// could go wrong: no snapshot yet, a snapshot far staler than the channel
// itself would tolerate, a peer that matters without ever entering, and a
// rebuild triggered by the collector.

const testMaxSpeed = 15

type linear struct {
	p geo.Point
	v geo.Vec
}

func (m linear) Position(t float64) geo.Point { return m.p.Add(m.v.Scale(t)) }
func (m linear) Velocity(float64) geo.Vec     { return m.v }

var probParams = core.ProbParams{Alpha: 0.5, Beta: 0.5}

// crowd returns n Random Waypoint peers at 10±5 m/s on a side×side field.
func crowd(t *testing.T, n int, side float64) []mobility.Model {
	t.Helper()
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Field: geo.NewRect(side, side), SpeedMean: 10, SpeedDelta: 5, Pause: 5, Horizon: 400,
		}, rng.New(5).SplitIndex("crowd", i))
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	return models
}

// bare assembles a channel with no protocol on it, watched by a Collector
// and the reference (both measuring road coverage on roads, if given); the
// test feeds both their issue and receipt events through the returned
// observer. Nothing ever broadcasts, so the channel builds a snapshot only if
// the test (or, wrongly, the collector) asks.
func bare(t *testing.T, models []mobility.Model, maxSpeed, sampleEvery float64, roads *roadnet.Graph) (*sim.Simulator, *radio.Channel, *metrics.Collector, *refCollector, core.Observer) {
	t.Helper()
	s := sim.New()
	cfg := radio.DefaultConfig()
	cfg.MaxSpeed = maxSpeed
	ch, err := radio.New(s, cfg, models, func(int, radio.Frame) {}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(s, ch, probParams, sampleEvery)
	var refCov *metrics.RoadCoverage
	if roads != nil {
		col.EnableRoadCoverage(metrics.NewRoadCoverage(roads, 0), nil)
		refCov = metrics.NewRoadCoverage(roads, 0)
	}
	ref := newRefCollector(s, ch, probParams, sampleEvery, refCov)
	return s, ch, col, ref, core.MultiObserver(col, ref)
}

// countRebuilds instruments ch and returns a reader of its grid-rebuild count.
func countRebuilds(ch *radio.Channel) func() uint64 {
	reg := obs.NewRegistry()
	ch.InstrumentWith(reg)
	return reg.Counter("radio_grid_rebuilds_total", "").Value
}

// issueAndInform schedules the ad's issue at its IssuedAt and a first receipt
// for every third peer, spread over the following seconds.
func issueAndInform(s *sim.Simulator, both core.Observer, ad *ads.Advertisement, n int) {
	s.Schedule(ad.IssuedAt, func() { both.OnIssue(0, ad, ad.IssuedAt) })
	for k := 0; k < n; k += 3 {
		k, at := k, ad.IssuedAt+1+0.1*float64(k)
		s.Schedule(at, func() { both.OnFirstReceive(k, ad, at) })
	}
}

func TestNoSnapshotFallsBackToFullScan(t *testing.T) {
	const n, side = 400, 4000
	s, ch, col, ref, both := bare(t, crowd(t, n, side), testMaxSpeed, 1, nil)
	rebuilds := countRebuilds(ch)
	ad := &ads.Advertisement{
		ID: ads.ID{Issuer: 0, Seq: 1}, Origin: geo.Point{X: side / 2, Y: side / 2},
		IssuedAt: 0.4, R: 400, D: 90,
	}
	issueAndInform(s, both, ad, n)
	var atIssue int
	s.Schedule(0.45, func() { atIssue = ref.report(ad.ID).PassedThrough })
	s.Run(120)

	if got := rebuilds(); got != 0 {
		t.Fatalf("%d grid rebuilds with nothing broadcasting: the collector built a snapshot", got)
	}
	diffReports(t, col, ref)
	if later := ref.report(ad.ID).PassedThrough; later < atIssue+10 {
		t.Errorf("%d entrants at issue, %d at the end: too few crossings to test anything", atIssue, later)
	}
}

func TestCrossingUnderStaleSnapshot(t *testing.T) {
	const n, side, tick = 300, 4000, 3.0
	origin := geo.Point{X: side / 2, Y: side / 2}
	ad := &ads.Advertisement{ID: ads.ID{Issuer: 0, Seq: 1}, Origin: origin, IssuedAt: 0.4, R: 400, D: 900}
	radiusAt := func(now float64) float64 { return core.RadiusAt(probParams, ad.R, ad.D, now-ad.IssuedAt) }

	// The runner heads for the origin from 1800 m out at exactly MaxSpeed and
	// crosses the boundary some 93 s after the only snapshot was taken.
	runner := n
	models := append(crowd(t, n, side),
		linear{p: origin.Add(geo.Vec{X: 1800}), v: geo.Vec{X: -testMaxSpeed}})
	// The grazer passes at exactly MaxSpeed just inside the circle's edge, so
	// that the chord sampled over (30, 33] dips 0.3 m into the area while both
	// its ends lie outside: only the V_max·tick term of the candidate bound
	// keeps it in view.
	grazer := n + 1
	models = append(models, linear{
		p: origin.Add(geo.Vec{X: -testMaxSpeed * 31.5, Y: radiusAt(33) - 0.3}),
		v: geo.Vec{X: testMaxSpeed},
	})
	for _, at := range []float64{30, 33} {
		if d := models[grazer].Position(at).Dist(origin); d <= radiusAt(at) {
			t.Fatalf("grazer is inside the area at t=%v (%.3f ≤ %.3f): not a graze", at, d, radiusAt(at))
		}
	}

	s, ch, col, ref, both := bare(t, models, testMaxSpeed, tick, nil)
	rebuilds := countRebuilds(ch)
	s.Schedule(0, ch.RefreshGrid)
	issueAndInform(s, both, ad, n)
	s.Run(150)

	if got := rebuilds(); got != 1 {
		t.Fatalf("%d grid rebuilds, want the one the test asked for", got)
	}
	diffReports(t, col, ref)
	if at, ok := ref.entryTime(ad.ID, runner); !ok || math.Abs(at-(1800-radiusAt(at))/testMaxSpeed) > 0.01 {
		t.Errorf("runner entered at %v (entered=%v), want when it is R_t from the origin", at, ok)
	}
	if at, ok := ref.entryTime(ad.ID, grazer); !ok || at <= 30 || at >= 33 {
		t.Errorf("grazer entered at %v (entered=%v), want inside (30, 33)", at, ok)
	}
}

// TestLedgerKeepsCoverersOutsideTheArea parks an informed peer 50 m outside
// the area, where its radio still reaches road inside it. It can never enter,
// but it counts toward road coverage, so a compact ledger must keep it: that
// is what the radio-range term of the ledger bound is for, and with nobody
// moving nothing else in the bound would.
func TestLedgerKeepsCoverersOutsideTheArea(t *testing.T) {
	roads, err := roadnet.Grid(9, 9, 250) // 2 km square; y = 1000 is a street
	if err != nil {
		t.Fatal(err)
	}
	origin := geo.Point{X: 1000, Y: 1000}
	const coverer = 0
	models := []mobility.Model{mobility.NewStatic(origin.Add(geo.Vec{X: 350}))}
	for i := 0; i < 60; i++ { // a far crowd, so that the ledger is compact
		models = append(models, mobility.NewStatic(geo.Point{X: 3000 + 10*float64(i), Y: 3000}))
	}
	s, _, col, ref, both := bare(t, models, 0, 1, roads)
	ad := &ads.Advertisement{ID: ads.ID{Issuer: 1, Seq: 1}, Origin: origin, IssuedAt: 0.5, R: 300, D: 60}
	s.Schedule(ad.IssuedAt, func() { both.OnIssue(1, ad, ad.IssuedAt) })
	s.Schedule(2.5, func() { both.OnFirstReceive(coverer, ad, 2.5) })
	s.Run(30)

	diffReports(t, col, ref)
	if rep := ref.report(ad.ID); rep.PassedThrough != 0 || rep.RoadCoverage <= 0 {
		t.Errorf("reference: %d entrants, road coverage %v; want nobody inside and some road covered from outside",
			rep.PassedThrough, rep.RoadCoverage)
	}
}

// TestCollectorNeverRebuildsTheGrid runs one lossy scenario with and without
// a collector attached. A collector that refreshed the snapshot would move
// the snapshot instants, with them the receiver order feeding the channel's
// loss draws, and so every count below.
func TestCollectorNeverRebuildsTheGrid(t *testing.T) {
	run := func(attach bool) (radio.Stats, uint64) {
		s := sim.New()
		rcfg := radio.DefaultConfig()
		rcfg.Range, rcfg.MaxSpeed, rcfg.LossRate = 125, testMaxSpeed, 0.2
		cfg := core.Config{Protocol: core.GossipOpt, Params: probParams, RoundTime: 5, DIS: 100, CacheK: 10}
		net, err := core.New(s, rcfg, crowd(t, 300, 1500), cfg, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		rebuilds := countRebuilds(net.Channel())
		if attach {
			net.SetObserver(metrics.NewCollector(s, net.Channel(), cfg.Params, 1))
		}
		net.Start()
		for k := 0; k < 3; k++ {
			k := k
			s.Schedule(2.5+7*float64(k), func() {
				if _, err := net.IssueAd(40*k, core.AdSpec{R: 400, D: 80}); err != nil {
					t.Error(err)
				}
			})
		}
		s.Run(140)
		return net.Channel().Stats(), rebuilds()
	}
	bareStats, bareRebuilds := run(false)
	stats, rebuilds := run(true)
	if bareStats.Lost == 0 || bareRebuilds == 0 {
		t.Fatalf("nothing lost or rebuilt (%+v, %d rebuilds): the run tests nothing", bareStats, bareRebuilds)
	}
	if stats != bareStats {
		t.Errorf("channel stats with a collector %+v, without %+v", stats, bareStats)
	}
	if rebuilds != bareRebuilds {
		t.Errorf("grid rebuilds with a collector %d, without %d", rebuilds, bareRebuilds)
	}
}
