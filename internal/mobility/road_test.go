package mobility

import (
	"math"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/rng"
	"instantad/internal/roadnet"
)

func roadTestGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Grid(6, 6, 150)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRoadLegProperties is the shortest-path/leg-continuity property test:
// consecutive legs share endpoints, every moving leg runs along a road edge
// at a speed within mean±delta, and pause legs hold position at an
// intersection for exactly the configured pause.
func TestRoadLegProperties(t *testing.T) {
	g := roadTestGraph(t)
	cfg := RoadConfig{Graph: g, SpeedMean: 12, SpeedDelta: 4, Pause: 3, Horizon: 1200}

	// onRoad reports whether (a, b) is an edge of g: two intersections of
	// the 150 m grid one spacing apart.
	onRoad := func(a, b geo.Point) bool {
		return g.Pos(g.NearestNode(a)) == a && g.Pos(g.NearestNode(b)) == b && a.Dist(b) == 150
	}

	for seed := uint64(1); seed <= 20; seed++ {
		m, err := NewRoad(cfg, rng.New(seed).Split("road"))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		raw := m.(LegLister).Legs()
		if len(raw) == 0 {
			t.Fatalf("seed %d: empty trajectory", seed)
		}
		type ptLeg struct {
			T0, T1   float64
			From, To geo.Point
		}
		legs := make([]ptLeg, len(raw))
		for i, l := range raw {
			legs[i] = ptLeg{
				T0: l.T0, T1: l.T1,
				From: geo.Point{X: l.From[0], Y: l.From[1]},
				To:   geo.Point{X: l.To[0], Y: l.To[1]},
			}
		}
		if legs[len(legs)-1].T1 < cfg.Horizon {
			t.Fatalf("seed %d: trajectory ends at %v, before horizon %v",
				seed, legs[len(legs)-1].T1, cfg.Horizon)
		}
		for i, l := range legs {
			if l.T1 <= l.T0 {
				t.Fatalf("seed %d leg %d: non-positive duration [%v, %v]", seed, i, l.T0, l.T1)
			}
			if i > 0 {
				prev := legs[i-1]
				if prev.T1 != l.T0 || prev.To != l.From {
					t.Fatalf("seed %d leg %d: discontinuity %+v -> %+v", seed, i, prev, l)
				}
			}
			if l.From == l.To {
				// Pause leg: must sit at an intersection for exactly Pause.
				if dt := l.T1 - l.T0; math.Abs(dt-cfg.Pause) > 1e-9 {
					t.Fatalf("seed %d leg %d: pause of %v, want %v", seed, i, dt, cfg.Pause)
				}
				if g.NearestNode(l.From) < 0 || g.Pos(g.NearestNode(l.From)) != l.From {
					t.Fatalf("seed %d leg %d: pause off-intersection at %v", seed, i, l.From)
				}
				continue
			}
			// Moving leg: along a road edge, speed within mean±delta.
			if !onRoad(l.From, l.To) {
				t.Fatalf("seed %d leg %d: %v -> %v is not a road edge", seed, i, l.From, l.To)
			}
			speed := l.From.Dist(l.To) / (l.T1 - l.T0)
			if speed < cfg.SpeedMean-cfg.SpeedDelta-1e-9 || speed > cfg.SpeedMean+cfg.SpeedDelta+1e-9 {
				t.Fatalf("seed %d leg %d: speed %v outside %v±%v",
					seed, i, speed, cfg.SpeedMean, cfg.SpeedDelta)
			}
		}
	}
}

func TestRoadDeterministic(t *testing.T) {
	g := roadTestGraph(t)
	cfg := RoadConfig{Graph: g, SpeedMean: 10, SpeedDelta: 2, Horizon: 600}
	a, err := NewRoad(cfg, rng.New(42).Split("road"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRoad(cfg, rng.New(42).Split("road"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 17.3, 100, 599.9, 10000} {
		if a.Position(tt) != b.Position(tt) || a.Velocity(tt) != b.Velocity(tt) {
			t.Fatalf("trajectories diverge at t=%v", tt)
		}
	}
}

func TestRoadPositionsStayOnGraphBounds(t *testing.T) {
	g := roadTestGraph(t)
	cfg := RoadConfig{Graph: g, SpeedMean: 15, SpeedDelta: 5, Horizon: 500}
	m, err := NewRoad(cfg, rng.New(3).Split("road"))
	if err != nil {
		t.Fatal(err)
	}
	b := g.Bounds()
	for tt := 0.0; tt <= 500; tt += 7.7 {
		if p := m.Position(tt); b.Clamp(p) != p {
			t.Fatalf("position %v at t=%v outside road bounds %+v", p, tt, b)
		}
	}
}

func TestRoadConfigRejects(t *testing.T) {
	g := roadTestGraph(t)
	good := RoadConfig{Graph: g, SpeedMean: 10, SpeedDelta: 2, Horizon: 100}
	cases := []RoadConfig{
		{SpeedMean: 10, Horizon: 100},                           // nil graph
		{Graph: g, SpeedMean: 0, Horizon: 100},                  // zero speed
		{Graph: g, SpeedMean: 10, SpeedDelta: 10, Horizon: 100}, // delta >= mean
		{Graph: g, SpeedMean: 10, Pause: -1, Horizon: 100},      // negative pause
		{Graph: g, SpeedMean: 10},                               // no horizon
	}
	for i, cfg := range cases {
		if _, err := NewRoad(cfg, rng.New(1).Split("road")); err == nil {
			t.Errorf("case %d: accepted bad config %+v", i, cfg)
		}
	}
	if _, err := NewRoad(good, rng.New(1).Split("road")); err != nil {
		t.Fatalf("rejected good config: %v", err)
	}
}

func TestRoadDisconnectedErrors(t *testing.T) {
	// Two components, one a single edge: a vehicle starting on the small
	// component draws an unreachable-or-self destination with probability
	// 5/6 per draw, so over a long horizon it is statistically certain to
	// fail maxTripRedraws draws in a row. Construction must return the
	// disconnection error then, never loop forever. The rng is
	// deterministic, so once a failing seed exists this test is stable.
	g, err := roadnet.NewGraph(
		[]geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 1000, Y: 0}, {X: 1010, Y: 0}, {X: 1020, Y: 0}, {X: 1030, Y: 0}},
		[][2]int{{0, 1}, {2, 3}, {3, 4}, {4, 5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RoadConfig{Graph: g, SpeedMean: 10, SpeedDelta: 2, Horizon: 1e6}
	sawErr := false
	for seed := uint64(1); seed <= 100 && !sawErr; seed++ {
		_, err := NewRoad(cfg, rng.New(seed).Split("road"))
		sawErr = err != nil
	}
	if !sawErr {
		t.Fatal("no seed tripped the disconnection bound on a split graph")
	}
}
