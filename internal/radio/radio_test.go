package radio

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// staticChannel builds a channel with nodes pinned at the given points.
func staticChannel(t *testing.T, cfg Config, pts []geo.Point, deliver DeliverFunc) (*sim.Simulator, *Channel) {
	t.Helper()
	s := sim.New()
	models := make([]mobility.Model, len(pts))
	for i, p := range pts {
		models[i] = mobility.NewStatic(p)
	}
	if deliver == nil {
		deliver = func(int, Frame) {}
	}
	ch, err := New(s, cfg, models, deliver, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return s, ch
}

func TestConfigValidation(t *testing.T) {
	s := sim.New()
	m := []mobility.Model{mobility.NewStatic(geo.Point{})}
	del := func(int, Frame) {}
	bad := []Config{
		{},
		{Range: 250, LossRate: 1.0, GridRefresh: 1},
		{Range: 250, LossRate: -0.1, GridRefresh: 1},
		{Range: 250, GridRefresh: 0},
		{Range: 250, GridRefresh: 1, MaxSpeed: -1},
		{Range: 250, GridRefresh: 1, BaseLatency: -1},
	}
	for i, c := range bad {
		if _, err := New(s, c, m, del, rng.New(1)); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if _, err := New(s, DefaultConfig(), m, nil, rng.New(1)); err == nil {
		t.Error("nil deliver accepted")
	}
	if _, err := New(s, DefaultConfig(), nil, del, rng.New(1)); err == nil {
		t.Error("no nodes accepted")
	}
}

// TestValidateRejectsNonFinite: every comparison with NaN is false, so a guard
// written `x <= 0` accepts it (Range = NaN used to validate and then panic in
// the grid rebuild). Every float field, the energy costs included, is tried
// with NaN and both infinities, and so is SetNodeRange.
func TestValidateRejectsNonFinite(t *testing.T) {
	base := DefaultConfig()
	base.Energy = DefaultEnergy()
	base.FadeZone = 10
	if err := base.validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	var tried int
	var try func(v reflect.Value, name string)
	try = func(v reflect.Value, name string) {
		for i := 0; i < v.NumField(); i++ {
			f, fname := v.Field(i), name+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				try(f, fname+".")
			case reflect.Float64:
				tried++
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					old := f.Float()
					f.SetFloat(bad)
					if err := base.validate(); err == nil {
						t.Errorf("%s = %v accepted", fname, bad)
					}
					f.SetFloat(old)
				}
			}
		}
	}
	try(reflect.ValueOf(&base).Elem(), "")
	if tried != 12 {
		t.Errorf("tried %d float fields, want all 12 of Config and EnergyConfig", tried)
	}
	_, ch := staticChannel(t, DefaultConfig(), []geo.Point{{}}, nil)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := ch.SetNodeRange(0, bad); err == nil {
			t.Errorf("SetNodeRange(0, %v) accepted", bad)
		}
	}
}

func TestBroadcastReachesOnlyInRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterMax = 0
	pts := []geo.Point{
		{X: 0, Y: 0},   // sender
		{X: 100, Y: 0}, // in range
		{X: 0, Y: 249}, // in range
		{X: 250, Y: 0}, // exactly at range (inclusive)
		{X: 251, Y: 0}, // out of range
		{X: 1000, Y: 1000},
	}
	var got []int
	s, ch := staticChannel(t, cfg, pts, func(to int, f Frame) { got = append(got, to) })
	s.Schedule(0, func() { ch.Broadcast(Frame{From: 0, Bytes: 100}) })
	s.Run(1)
	sort.Ints(got)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("delivered to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered to %v, want %v", got, want)
		}
	}
	st := ch.Stats()
	if st.Broadcasts != 1 || st.Deliveries != 3 || st.BytesSent != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSenderDoesNotHearItself(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	var got []int
	s, ch := staticChannel(t, DefaultConfig(), pts, func(to int, f Frame) { got = append(got, to) })
	s.Schedule(0, func() { ch.Broadcast(Frame{From: 0, Bytes: 10}) })
	s.Run(1)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("delivered to %v, want [1]", got)
	}
}

func TestDeliveryLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterMax = 0
	cfg.BaseLatency = 0.001
	cfg.BitrateBps = 1e6 // 1000-byte frame → 8 ms airtime
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	var at float64
	s := sim.New()
	models := []mobility.Model{mobility.NewStatic(pts[0]), mobility.NewStatic(pts[1])}
	ch, err := New(s, cfg, models, func(int, Frame) { at = s.Now() }, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Schedule(2, func() { ch.Broadcast(Frame{From: 0, Bytes: 1000}) })
	s.Run(3)
	want := 2 + 0.008 + 0.001
	if diff := at - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("arrival at %v, want %v", at, want)
	}
}

func TestJitterBoundsArrival(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterMax = 0.005
	cfg.BaseLatency = 0.001
	cfg.BitrateBps = 0
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	s := sim.New()
	models := []mobility.Model{mobility.NewStatic(pts[0]), mobility.NewStatic(pts[1])}
	var arrivals []float64
	ch, _ := New(s, cfg, models, func(int, Frame) { arrivals = append(arrivals, s.Now()) }, rng.New(7))
	for i := 0; i < 100; i++ {
		tt := float64(i)
		s.Schedule(tt, func() { ch.Broadcast(Frame{From: 0, Bytes: 10}) })
	}
	s.Run(200)
	if len(arrivals) != 100 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	varied := false
	for i, a := range arrivals {
		lo, hi := float64(i)+0.001, float64(i)+0.001+0.005
		if a < lo-1e-12 || a > hi+1e-12 {
			t.Fatalf("arrival %d at %v outside [%v,%v]", i, a, lo, hi)
		}
		if a != lo {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter never varied arrival times")
	}
}

func TestLossRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 0.3
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	s := sim.New()
	models := []mobility.Model{mobility.NewStatic(pts[0]), mobility.NewStatic(pts[1])}
	delivered := 0
	ch, _ := New(s, cfg, models, func(int, Frame) { delivered++ }, rng.New(5))
	const n = 10000
	for i := 0; i < n; i++ {
		tt := float64(i) * 0.01
		s.Schedule(tt, func() { ch.Broadcast(Frame{From: 0, Bytes: 10}) })
	}
	s.Run(1000)
	rate := float64(delivered) / n
	if rate < 0.67 || rate > 0.73 {
		t.Errorf("delivery rate %v, want ≈0.7", rate)
	}
	st := ch.Stats()
	if st.Lost+uint64(delivered) != n {
		t.Errorf("lost %d + delivered %d ≠ %d", st.Lost, delivered, n)
	}
}

func TestCollisionModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Collisions = true
	cfg.JitterMax = 0 // both frames start at the same instant → overlap
	cfg.BitrateBps = 1e5
	// Two senders both in range of the receiver (node 2).
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 0}}
	s := sim.New()
	models := []mobility.Model{
		mobility.NewStatic(pts[0]), mobility.NewStatic(pts[1]), mobility.NewStatic(pts[2]),
	}
	delivered := 0
	ch, _ := New(s, cfg, models, func(to int, f Frame) {
		if to == 2 {
			delivered++
		}
	}, rng.New(1))
	s.Schedule(1, func() {
		ch.Broadcast(Frame{From: 0, Bytes: 500})
		ch.Broadcast(Frame{From: 1, Bytes: 500})
	})
	s.Run(2)
	if delivered != 0 {
		t.Errorf("receiver 2 got %d frames despite collision", delivered)
	}
	if ch.Stats().Collided == 0 {
		t.Error("no collisions counted")
	}
	// Far-apart-in-time frames do not collide.
	delivered2 := 0
	s3 := sim.New()
	ch3, _ := New(s3, cfg, models, func(to int, f Frame) {
		if to == 2 {
			delivered2++
		}
	}, rng.New(1))
	s3.Schedule(1, func() { ch3.Broadcast(Frame{From: 0, Bytes: 500}) })
	s3.Schedule(5, func() { ch3.Broadcast(Frame{From: 1, Bytes: 500}) })
	s3.Run(10)
	if delivered2 != 2 {
		t.Errorf("sequential frames delivered %d to node 2, want 2", delivered2)
	}
}

func TestNeighborsMatchBruteForceProperty(t *testing.T) {
	// Random static constellations: grid-accelerated neighbor query must
	// equal the brute-force answer.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		r := rng.New(seed)
		pts := make([]geo.Point, n)
		models := make([]mobility.Model, n)
		for i := range pts {
			pts[i] = geo.Point{X: r.Range(0, 1200), Y: r.Range(0, 1200)}
			models[i] = mobility.NewStatic(pts[i])
		}
		s := sim.New()
		cfg := DefaultConfig()
		ch, err := New(s, cfg, models, func(int, Frame) {}, rng.New(1))
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			got := ch.AppendNeighborsOf(nil, i)
			sort.Ints(got)
			var want []int
			for j := 0; j < n; j++ {
				if j != i && pts[i].Dist(pts[j]) <= cfg.Range {
					want = append(want, j)
				}
			}
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if got[k] != want[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNeighborsExactWithMovingNodesAndStaleGrid(t *testing.T) {
	// Two nodes approach each other; queries between grid refreshes must
	// still see them connect at the true crossing time.
	field := geo.NewRect(2000, 100)
	s := sim.New()
	cfg := DefaultConfig()
	cfg.GridRefresh = 10 // deliberately stale
	cfg.MaxSpeed = 20
	// Node 0 static at x=0; node 1 moves from x=1000 toward x=0 at 20 m/s
	// (crosses into 250 m range at t = 37.5).
	m0 := mobility.NewStatic(geo.Point{X: 0, Y: 0})
	m1 := newLinear(geo.Point{X: 1000, Y: 0}, geo.Vec{X: -20, Y: 0})
	ch, err := New(s, cfg, []mobility.Model{m0, m1}, func(int, Frame) {}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = field
	check := func(tt float64, wantConnected bool) {
		s.Schedule(tt, func() {
			got := len(ch.AppendNeighborsOf(nil, 0)) > 0
			if got != wantConnected {
				t.Errorf("t=%v: connected=%v, want %v", tt, got, wantConnected)
			}
		})
	}
	check(0.1, false)
	check(30, false)
	check(36, false)
	check(38, true) // inside range, though the grid snapshot is stale
	check(45, true)
	s.Run(50)
}

// TestSnapshotCandidatesCoverTheDiscAndNeverRebuild drives the read-only
// window walk observers use: at any snapshot age the candidates must include
// every node now inside the disc, online or not, the walk must leave the
// snapshot alone, and without a snapshot everyone is a candidate.
func TestSnapshotCandidatesCoverTheDiscAndNeverRebuild(t *testing.T) {
	const n, side, vmax = 400, 3000.0, 20.0
	r := rng.New(8)
	models := make([]mobility.Model, n)
	for i := range models {
		// Everyone moves at exactly MaxSpeed, in a random direction.
		dir := geo.Vec{X: r.Range(-1, 1), Y: r.Range(-1, 1)}
		models[i] = newLinear(geo.Point{X: r.Range(0, side), Y: r.Range(0, side)}, dir.Scale(vmax/dir.Len()))
	}
	s := sim.New()
	cfg := DefaultConfig()
	cfg.MaxSpeed = vmax
	ch, err := New(s, cfg, models, func(int, Frame) {}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.SetOnline(7, false); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ch.InstrumentWith(reg)
	rebuilds := reg.Counter("radio_grid_rebuilds_total", "")
	check := func(wantRebuilds uint64) {
		now := s.Now()
		for q := 0; q < 50; q++ {
			// Centres on and well off the field; radii from a cell to the field.
			center := geo.Point{X: r.Range(-side/2, 1.5*side), Y: r.Range(-side/2, 1.5*side)}
			radius := r.Range(10, side)
			in := make(map[int32]bool)
			for _, j := range ch.AppendSnapshotCandidates(nil, center, radius) {
				if in[j] {
					t.Fatalf("t=%v: node %d listed twice", now, j)
				}
				in[j] = true
			}
			for j := 0; j < n; j++ {
				if ch.PositionAt(j, now).Dist(center) <= radius && !in[int32(j)] {
					t.Fatalf("t=%v: node %d is within %.0f m of %v but not a candidate", now, j, radius, center)
				}
			}
		}
		if got := rebuilds.Value(); got != wantRebuilds {
			t.Fatalf("t=%v: %d rebuilds, want %d", now, got, wantRebuilds)
		}
	}
	if got := len(ch.AppendSnapshotCandidates(nil, geo.Point{}, 1)); got != n {
		t.Fatalf("%d candidates before any snapshot, want all %d", got, n)
	}
	check(0)
	s.Schedule(1, ch.RefreshGrid)
	for _, at := range []float64{1, 1.5, 2, 30, 200} { // fresh, in period, overdue, far overdue
		s.Schedule(at, func() { check(1) })
	}
	s.Run(300)
}

// newLinear returns a model moving from p with constant velocity v forever.
func newLinear(p geo.Point, v geo.Vec) mobility.Model {
	return linearModel{p: p, v: v}
}

type linearModel struct {
	p geo.Point
	v geo.Vec
}

func (m linearModel) Position(t float64) geo.Point { return m.p.Add(m.v.Scale(t)) }
func (m linearModel) Velocity(t float64) geo.Vec   { return m.v }

func TestNodesWithinExclude(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	_, ch := staticChannel(t, DefaultConfig(), pts, nil)
	all := ch.AppendNodesWithin(nil, geo.Point{X: 0, Y: 0}, 10, -1)
	if len(all) != 3 {
		t.Errorf("NodesWithin(-1) = %v, want all 3", all)
	}
	some := ch.AppendNodesWithin(nil, geo.Point{X: 0, Y: 0}, 10, 1)
	if len(some) != 2 {
		t.Errorf("NodesWithin(exclude 1) = %v, want 2", some)
	}
}

func TestOverlapWithAndDistance(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 250, Y: 0}}
	_, ch := staticChannel(t, DefaultConfig(), pts, nil)
	if d := ch.DistanceBetween(0, 1); d != 250 {
		t.Errorf("distance = %v", d)
	}
	// Peers exactly one range apart overlap by the paper's minimum,
	// 2/3 − √3/(2π).
	if p, want := ch.OverlapWith(0, 1), 2.0/3-math.Sqrt(3)/(2*math.Pi); math.Abs(p-want) > 1e-9 {
		t.Errorf("overlap = %v, want %v", p, want)
	}
	if ch.cfg.Range != 250 {
		t.Errorf("Range = %v", ch.cfg.Range)
	}
}

func TestBroadcastUnknownNodePanics(t *testing.T) {
	_, ch := staticChannel(t, DefaultConfig(), []geo.Point{{X: 0, Y: 0}}, nil)
	defer func() {
		if recover() == nil {
			t.Error("broadcast from unknown node did not panic")
		}
	}()
	ch.Broadcast(Frame{From: 5})
}

func BenchmarkNeighborQuery300(b *testing.B) {
	r := rng.New(1)
	n := 300
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Field: geo.NewRect(1500, 1500), SpeedMean: 10, SpeedDelta: 5,
			Pause: 10, Horizon: 2000,
		}, r.SplitIndex("node", i))
		if err != nil {
			b.Fatal(err)
		}
		models[i] = m
	}
	s := sim.New()
	ch, _ := New(s, DefaultConfig(), models, func(int, Frame) {}, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.AppendNeighborsOf(nil, i%n)
	}
}

func TestFadeZoneDeliveryProbability(t *testing.T) {
	cfg := DefaultConfig() // range 250
	cfg.FadeZone = 100     // fade over [150, 250]
	// Receivers: well inside (100 m), mid-fade (200 m → p=0.5), at edge.
	pts := []geo.Point{
		{X: 0, Y: 0},
		{X: 100, Y: 0},
		{X: 200, Y: 0},
		{X: 249, Y: 0},
	}
	s := sim.New()
	models := make([]mobility.Model, len(pts))
	for i, p := range pts {
		models[i] = mobility.NewStatic(p)
	}
	counts := make([]int, len(pts))
	ch, err := New(s, cfg, models, func(to int, f Frame) { counts[to]++ }, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		tt := float64(i) * 0.01
		s.Schedule(tt, func() { ch.Broadcast(Frame{From: 0, Bytes: 10}) })
	}
	s.Run(100)
	// Inside the hard zone: every frame arrives.
	if counts[1] != n {
		t.Errorf("inside-zone receiver got %d/%d", counts[1], n)
	}
	// Mid-fade: ≈ 50 %.
	if f := float64(counts[2]) / n; f < 0.45 || f > 0.55 {
		t.Errorf("mid-fade delivery %v, want ≈0.5", f)
	}
	// Near the very edge: ≈ 1 %.
	if f := float64(counts[3]) / n; f > 0.05 {
		t.Errorf("edge delivery %v, want ≈0.01", f)
	}
	if ch.Stats().Faded == 0 {
		t.Error("no faded frames counted")
	}
}

func TestFadeZoneValidation(t *testing.T) {
	s := sim.New()
	m := []mobility.Model{mobility.NewStatic(geo.Point{})}
	cfg := DefaultConfig()
	cfg.FadeZone = -1
	if _, err := New(s, cfg, m, func(int, Frame) {}, rng.New(1)); err == nil {
		t.Error("negative fade zone accepted")
	}
	cfg.FadeZone = cfg.Range
	if _, err := New(s, cfg, m, func(int, Frame) {}, rng.New(1)); err == nil {
		t.Error("fade zone = range accepted")
	}
}

func TestHeterogeneousRanges(t *testing.T) {
	// Node 0: vehicular radio 250 m; node 1: handset 50 m, 100 m apart.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	var toHandset, toVehicle int
	s := sim.New()
	models := []mobility.Model{mobility.NewStatic(pts[0]), mobility.NewStatic(pts[1])}
	ch, err := New(s, DefaultConfig(), models, func(to int, f Frame) {
		if to == 1 {
			toHandset++
		} else {
			toVehicle++
		}
	}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.SetNodeRange(1, 50); err != nil {
		t.Fatal(err)
	}
	if ch.RangeOf(0) != 250 || ch.RangeOf(1) != 50 {
		t.Fatalf("ranges %v/%v", ch.RangeOf(0), ch.RangeOf(1))
	}
	s.Schedule(0, func() {
		ch.Broadcast(Frame{From: 0, Bytes: 10}) // vehicle reaches handset
		ch.Broadcast(Frame{From: 1, Bytes: 10}) // handset cannot reach back
	})
	s.Run(1)
	if toHandset != 1 {
		t.Errorf("handset received %d, want 1", toHandset)
	}
	if toVehicle != 0 {
		t.Errorf("vehicle received %d, want 0 (asymmetric link)", toVehicle)
	}
	// Neighbor views are asymmetric too.
	s.Schedule(1, func() {
		if n := ch.AppendNeighborsOf(nil, 0); len(n) != 1 {
			t.Errorf("vehicle neighbors = %v", n)
		}
		if n := ch.AppendNeighborsOf(nil, 1); len(n) != 0 {
			t.Errorf("handset neighbors = %v", n)
		}
	})
	s.Run(2)
}

func TestSetNodeRangeValidation(t *testing.T) {
	_, ch := staticChannel(t, DefaultConfig(), []geo.Point{{X: 0, Y: 0}}, nil)
	if err := ch.SetNodeRange(5, 100); err == nil {
		t.Error("unknown node accepted")
	}
	if err := ch.SetNodeRange(0, 0); err == nil {
		t.Error("zero range accepted")
	}
}

func TestOverlapWithUnequalRanges(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 0, Y: 0}}
	_, ch := staticChannel(t, DefaultConfig(), pts, nil)
	if err := ch.SetNodeRange(1, 50); err != nil {
		t.Fatal(err)
	}
	// Coincident positions: the big disk fully covers the small one → the
	// small node's disk is 100% overlapped by the big node's.
	if p := ch.OverlapWith(0, 1); p < 0.999 {
		t.Errorf("big-over-small overlap = %v, want 1", p)
	}
	// The big node's disk is only (50/250)² = 4% covered by the small one.
	if p := ch.OverlapWith(1, 0); p < 0.039 || p > 0.041 {
		t.Errorf("small-over-big overlap = %v, want 0.04", p)
	}
}

func TestEnergyAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Energy = EnergyConfig{Enabled: true, TxBaseJ: 1, TxPerByteJ: 0.01, RxBaseJ: 0.5, RxPerByteJ: 0.005}
	pts := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 0}}
	s, ch := staticChannel(t, cfg, pts, nil)
	s.Schedule(0, func() { ch.Broadcast(Frame{From: 0, Bytes: 100}) })
	s.Run(1)
	e := ch.Energy()
	// Tx: 1 + 100·0.01 = 2 J on node 0; Rx: 2 receivers × (0.5 + 0.5) = 2 J.
	if diff := e.TxJ - 2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("TxJ = %v, want 2", e.TxJ)
	}
	if diff := e.RxJ - 2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("RxJ = %v, want 2", e.RxJ)
	}
	if diff := e.TotalJ - 4; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("TotalJ = %v, want 4", e.TotalJ)
	}
	if len(e.PerNode) != 3 || e.PerNode[0] != 2 || e.PerNode[1] != 1 || e.PerNode[2] != 1 {
		t.Errorf("PerNode = %v", e.PerNode)
	}
	// The copy must not alias internal state.
	e.PerNode[0] = 999
	if ch.Energy().PerNode[0] == 999 {
		t.Error("PerNode aliases internal state")
	}
}

func TestEnergyDisabledByDefault(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}
	s, ch := staticChannel(t, DefaultConfig(), pts, nil)
	s.Schedule(0, func() { ch.Broadcast(Frame{From: 0, Bytes: 100}) })
	s.Run(1)
	e := ch.Energy()
	if e.TotalJ != 0 || e.PerNode != nil {
		t.Errorf("energy accounted while disabled: %+v", e)
	}
}

func TestEnergyReceiversPayForDroppedFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 0.9 // nearly everything is lost...
	cfg.Energy = DefaultEnergy()
	pts := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}
	s, ch := staticChannel(t, cfg, pts, nil)
	for i := 0; i < 100; i++ {
		tt := float64(i) * 0.1
		s.Schedule(tt, func() { ch.Broadcast(Frame{From: 0, Bytes: 100}) })
	}
	s.Run(100)
	e := ch.Energy()
	// ...but the receiver's front-end paid for all 100 frames.
	wantRx := 100 * (cfg.Energy.RxBaseJ + 100*cfg.Energy.RxPerByteJ)
	if diff := e.RxJ - wantRx; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("RxJ = %v, want %v", e.RxJ, wantRx)
	}
}

func TestEnergyConfigValidation(t *testing.T) {
	s := sim.New()
	m := []mobility.Model{mobility.NewStatic(geo.Point{})}
	cfg := DefaultConfig()
	cfg.Energy = EnergyConfig{Enabled: true, TxBaseJ: -1}
	if _, err := New(s, cfg, m, func(int, Frame) {}, rng.New(1)); err == nil {
		t.Error("negative energy cost accepted")
	}
}

func TestOfflineRadioSilence(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 0}}
	var got []int
	s := sim.New()
	models := []mobility.Model{
		mobility.NewStatic(pts[0]), mobility.NewStatic(pts[1]), mobility.NewStatic(pts[2]),
	}
	ch, err := New(s, DefaultConfig(), models, func(to int, f Frame) { got = append(got, to) }, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Online(1) {
		t.Fatal("nodes should start online")
	}
	if err := ch.SetOnline(1, false); err != nil {
		t.Fatal(err)
	}
	s.Schedule(0, func() {
		ch.Broadcast(Frame{From: 0, Bytes: 10}) // node 1 must not hear this
		ch.Broadcast(Frame{From: 1, Bytes: 10}) // and must not transmit
	})
	s.Run(1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("deliveries = %v, want only node 2", got)
	}
	if ch.Stats().Broadcasts != 1 {
		t.Errorf("broadcasts = %d, want 1 (offline tx suppressed)", ch.Stats().Broadcasts)
	}
	// Back online: full service.
	if err := ch.SetOnline(1, true); err != nil {
		t.Fatal(err)
	}
	got = nil
	s.Schedule(1, func() { ch.Broadcast(Frame{From: 0, Bytes: 10}) })
	s.Run(2)
	if len(got) != 2 {
		t.Errorf("after re-online deliveries = %v", got)
	}
}

func TestOfflineDropsInFlightFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BaseLatency = 0.5 // long flight time
	cfg.JitterMax = 0
	pts := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}
	delivered := 0
	s := sim.New()
	models := []mobility.Model{mobility.NewStatic(pts[0]), mobility.NewStatic(pts[1])}
	ch, _ := New(s, cfg, models, func(int, Frame) { delivered++ }, rng.New(1))
	s.Schedule(0, func() { ch.Broadcast(Frame{From: 0, Bytes: 10}) })
	s.Schedule(0.1, func() { _ = ch.SetOnline(1, false) }) // powers down mid-flight
	s.Run(2)
	if delivered != 0 {
		t.Errorf("frame delivered to a powered-down radio")
	}
}

func TestSetOnlineValidation(t *testing.T) {
	_, ch := staticChannel(t, DefaultConfig(), []geo.Point{{X: 0, Y: 0}}, nil)
	if err := ch.SetOnline(7, false); err == nil {
		t.Error("unknown node accepted")
	}
	if err := ch.SetOnline(0, true); err != nil {
		t.Errorf("no-op online toggle errored: %v", err)
	}
}

func TestAirtimeAndUtilization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitrateBps = 1e6 // 125 bytes = 1 ms airtime
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	s, ch := staticChannel(t, cfg, pts, nil)
	for i := 0; i < 100; i++ {
		tt := float64(i)
		s.Schedule(tt, func() { ch.Broadcast(Frame{From: 0, Bytes: 125}) })
	}
	s.Run(100)
	st := ch.Stats()
	want := 100 * 0.001
	if diff := st.AirtimeSec - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("airtime = %v, want %v", st.AirtimeSec, want)
	}
	if u := ch.Utilization(); u < 0.0009 || u > 0.0011 {
		t.Errorf("utilization = %v, want ≈0.001", u)
	}
}
