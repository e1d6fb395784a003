package radio

import (
	"testing"

	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// denseChannel builds the hot-path benchmark fixture: 1000 static nodes
// scattered uniformly over the canonical 1500 m field with the canonical
// 125 m transmission range, so a broadcast reaches ~20 receivers.
func denseChannel(b *testing.B, cfg Config) (*sim.Simulator, *Channel) {
	b.Helper()
	const n = 1000
	r := rng.New(42)
	s := sim.New()
	models := make([]mobility.Model, n)
	for i := range models {
		models[i] = mobility.NewStatic(geo.Point{X: r.Range(0, 1500), Y: r.Range(0, 1500)})
	}
	ch, err := New(s, cfg, models, func(int, Frame) {}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	return s, ch
}

// BenchmarkBroadcastDense measures one broadcast→deliver cycle on a dense
// network — the single-run hot path every figure and sweep funnels through.
// The allocs/op column is the headline number: the broadcast pipeline should
// be allocation-free in steady state.
func BenchmarkBroadcastDense(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Range = 125
	s, ch := denseChannel(b, cfg)
	// Warm the grid and any internal pools before measuring steady state.
	ch.Broadcast(Frame{From: 0, Bytes: 100})
	s.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Broadcast(Frame{From: i % ch.N(), Bytes: 100})
		s.RunAll()
	}
}

// BenchmarkBroadcastDenseCollisions is the same pipeline with the
// receiver-side collision model enabled (the most stateful channel variant).
func BenchmarkBroadcastDenseCollisions(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Range = 125
	cfg.Collisions = true
	s, ch := denseChannel(b, cfg)
	ch.Broadcast(Frame{From: 0, Bytes: 100})
	s.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Broadcast(Frame{From: i % ch.N(), Bytes: 100})
		s.RunAll()
	}
}

// BenchmarkNodesWithin measures the raw spatial query against the grid
// snapshot (exact re-filter included). The Alloc variant appends into a nil
// slice, so it pays for a fresh one; the Scratch variant appends into a reused
// buffer, Neighbors is the same through AppendNeighborsOf, the call the
// broadcast hot path and every async scan make, Mobile (below) is Neighbors
// on moving peers, and Stale is Mobile between grid builds, sorting its hits:
// all but Alloc must stay at zero allocations (the CI alloc guard greps their
// allocs/op).
func BenchmarkNodesWithin(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Range = 125
	_, ch := denseChannel(b, cfg)
	center := geo.Point{X: 750, Y: 750}
	b.Run("Alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ch.AppendNodesWithin(nil, center, 125, -1)
		}
	})
	b.Run("Scratch", func(b *testing.B) {
		var buf []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = ch.AppendNodesWithin(buf[:0], center, 125, -1)
		}
	})
	b.Run("Neighbors", func(b *testing.B) {
		var buf []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = ch.AppendNeighborsOf(buf[:0], i%ch.N())
		}
	})
	// Mobile has the shape of fig7_sweep's queries: 1000 Random Waypoint
	// peers on the canonical field, each query a peer's own at an instant no
	// other query shares, the snapshot refreshed once a simulated second, so
	// candidates are read off the piece table at every snapshot age.
	b.Run("Mobile", func(b *testing.B) {
		s, ch := mobileChannel(b, cfg)
		var buf []int
		at := 0.0
		query := func(i int) {
			at += 0.0137
			s.Run(at)
			buf = ch.AppendNeighborsOf(buf[:0], i*7919%ch.N())
		}
		for i := 0; i < 2000; i++ { // past the first rebuild and the scratch growth
			query(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(i)
		}
	})
	// Stale is Mobile's query at one instant, 3.5 s after the grid was built
	// and 0.5 s after the last refresh, which kept it (nobody can have moved
	// a cell): every query sorts its hits into the snapshot's order.
	b.Run("Stale", func(b *testing.B) {
		s, ch := mobileChannel(b, cfg)
		for k := 0; k <= 3; k++ {
			s.SchedulePooled(float64(k), ch.RefreshGrid)
		}
		s.Run(3.5)
		var buf []int
		for i := 0; i < ch.N(); i++ { // the scratch growth
			buf = ch.AppendNeighborsOf(buf[:0], i)
		}
		if ch.builtAt != 0 || ch.gridAt != 3 {
			b.Fatalf("grid built at %v, snapshot at %v: want 0 and 3", ch.builtAt, ch.gridAt)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = ch.AppendNeighborsOf(buf[:0], i*7919%ch.N())
		}
		if ch.builtAt != 0 {
			b.Fatalf("a query fell back to building the grid")
		}
	})
}

// mobileChannel is denseChannel's population on the move: 1000 Random
// Waypoint peers at 10 ± 5 m/s with 10 s pauses on the canonical 1500 m
// field, their trajectories long enough for any benchmark run.
func mobileChannel(b *testing.B, cfg Config) (*sim.Simulator, *Channel) {
	b.Helper()
	const n = 1000
	r := rng.New(42)
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Field: geo.NewRect(1500, 1500), SpeedMean: 10, SpeedDelta: 5, Pause: 10, Horizon: 2e4},
			r.SplitIndex("node", i))
		if err != nil {
			b.Fatal(err)
		}
		models[i] = m
	}
	s := sim.New()
	ch, err := New(s, cfg, models, func(int, Frame) {}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	return s, ch
}

// cityChannel builds the benchmark's city_scale population: 30 000 Random
// Waypoint peers at 10 ± 5 m/s with 10 s pauses on a 15 km field, 125 m
// cells.
func cityChannel(b *testing.B) (*sim.Simulator, *Channel, Config) {
	b.Helper()
	const n = 30000
	field := geo.NewRect(15000, 15000)
	models := make([]mobility.Model, n)
	r := rng.New(42)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Field: field, SpeedMean: 10, SpeedDelta: 5, Pause: 10, Horizon: 1e4}, r.SplitIndex("node", i))
		if err != nil {
			b.Fatal(err)
		}
		models[i] = m
	}
	cfg := DefaultConfig()
	cfg.Range = 125
	s := sim.New()
	ch, err := New(s, cfg, models, func(int, Frame) {}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	return s, ch, cfg
}

// BenchmarkNearestNode measures the issuer search at city scale: the node
// nearest a point anywhere on the field, under a snapshot half a second old.
// It must not allocate (the CI alloc guard greps its allocs/op).
func BenchmarkNearestNode(b *testing.B) {
	s, ch, _ := cityChannel(b)
	ch.RefreshGrid()
	s.Run(0.5)
	r := rng.New(3)
	pts := make([]geo.Point, 64)
	for i := range pts {
		pts[i] = geo.Point{X: r.Range(0, 15000), Y: r.Range(0, 15000)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearestSink = ch.NearestNode(pts[i%len(pts)])
	}
}

// nearestSink keeps BenchmarkNearestNode's call from being optimized away.
var nearestSink int

// BenchmarkGridBuild measures one grid build of the city_scale population
// (cityChannel), each 8 simulated seconds after the last, which is how far
// apart city_scale's builds come once the slack decides them. It must not
// allocate (the CI alloc guard greps this benchmark's allocs/op).
func BenchmarkGridBuild(b *testing.B) {
	_, ch, _ := cityChannel(b)
	const spacing = 8.0
	ch.rebuildGrid(0) // sizes every buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Wrap before the trajectories' 1e4 s horizon.
		ch.rebuildGrid(spacing * float64(i%1200+1))
	}
}
