package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

func rwpCfg() RandomWaypointConfig {
	return RandomWaypointConfig{
		Field:      geo.NewRect(1500, 1500),
		SpeedMean:  10,
		SpeedDelta: 5,
		Pause:      10,
		Horizon:    2000,
	}
}

func TestRandomWaypointValidation(t *testing.T) {
	bad := []RandomWaypointConfig{
		{},
		{Field: geo.NewRect(100, 100), SpeedMean: 0, Horizon: 10},
		{Field: geo.NewRect(100, 100), SpeedMean: 10, SpeedDelta: 10, Horizon: 10},
		{Field: geo.NewRect(100, 100), SpeedMean: 10, SpeedDelta: -1, Horizon: 10},
		{Field: geo.NewRect(100, 100), SpeedMean: 10, Pause: -1, Horizon: 10},
		{Field: geo.NewRect(100, 100), SpeedMean: 10, Horizon: 0},
	}
	for i, c := range bad {
		if _, err := NewRandomWaypoint(c, rng.New(1)); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestRandomWaypointDeterministic(t *testing.T) {
	a, err := NewRandomWaypoint(rwpCfg(), rng.New(1).Split("m"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRandomWaypoint(rwpCfg(), rng.New(1).Split("m"))
	for tt := 0.0; tt < 2000; tt += 37.5 {
		if a.Position(tt) != b.Position(tt) {
			t.Fatalf("trajectories diverge at t=%v", tt)
		}
	}
}

func TestRandomWaypointInBounds(t *testing.T) {
	cfg := rwpCfg()
	for seed := uint64(0); seed < 5; seed++ {
		m, err := NewRandomWaypoint(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for tt := -10.0; tt < cfg.Horizon+100; tt += 3.3 {
			p := m.Position(tt)
			if cfg.Field.Clamp(p) != p {
				t.Fatalf("seed %d: position %v at t=%v outside field", seed, p, tt)
			}
		}
	}
}

func TestRandomWaypointSpeedBounds(t *testing.T) {
	cfg := rwpCfg()
	m, err := NewRandomWaypoint(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	vmax := cfg.MaxSpeed()
	for tt := 0.0; tt < cfg.Horizon; tt += 1.0 {
		v := m.Velocity(tt).Len()
		if v > vmax+1e-9 {
			t.Fatalf("speed %v at t=%v exceeds vmax %v", v, tt, vmax)
		}
	}
}

func TestRandomWaypointContinuityProperty(t *testing.T) {
	cfg := rwpCfg()
	m, err := NewRandomWaypoint(cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	vmax := cfg.MaxSpeed()
	f := func(tRaw uint16, dtRaw uint8) bool {
		t0 := float64(tRaw) / math.MaxUint16 * cfg.Horizon
		dt := float64(dtRaw) / 255 * 5
		d := m.Position(t0).Dist(m.Position(t0 + dt))
		return d <= vmax*dt+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRandomWaypointPauses(t *testing.T) {
	// With a long pause, there must be instants with zero velocity.
	cfg := rwpCfg()
	cfg.Pause = 50
	m, err := NewRandomWaypoint(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	paused := false
	for tt := 0.0; tt < cfg.Horizon; tt += 1.0 {
		if m.Velocity(tt).Len() == 0 && tt > 0 {
			paused = true
			break
		}
	}
	if !paused {
		t.Error("no pause observed despite Pause=50")
	}
}

func TestPositionBeforeAndAfterHorizon(t *testing.T) {
	cfg := rwpCfg()
	m, _ := NewRandomWaypoint(cfg, rng.New(6))
	if m.Position(-5) != m.Position(0) {
		t.Error("pre-start position differs from start")
	}
	endA := m.Position(cfg.Horizon + 1e6)
	endB := m.Position(cfg.Horizon + 2e6)
	if endA != endB {
		t.Error("post-horizon position not frozen")
	}
	if v := m.Velocity(cfg.Horizon + 1e6); v != (geo.Vec{}) {
		t.Errorf("post-horizon velocity %v, want zero", v)
	}
}

func TestVelocityMatchesFiniteDifference(t *testing.T) {
	cfg := rwpCfg()
	cfg.Pause = 0
	m, _ := NewRandomWaypoint(cfg, rng.New(7))
	for tt := 1.0; tt < 500; tt += 13 {
		v := m.Velocity(tt)
		const h = 1e-5
		fd := m.Position(tt + h).Sub(m.Position(tt - h)).Scale(1 / (2 * h))
		// Skip instants right at a waypoint where velocity is discontinuous.
		if m.Velocity(tt-h) != m.Velocity(tt+h) {
			continue
		}
		if math.Abs(v.X-fd.X) > 1e-3 || math.Abs(v.Y-fd.Y) > 1e-3 {
			t.Errorf("t=%v: velocity %v vs finite diff %v", tt, v, fd)
		}
	}
}

func TestRandomWalkInBoundsAndContinuous(t *testing.T) {
	cfg := RandomWalkConfig{
		Field:      geo.NewRect(500, 300),
		SpeedMean:  10,
		SpeedDelta: 5,
		Epoch:      20,
		Horizon:    1000,
	}
	for seed := uint64(0); seed < 5; seed++ {
		m, err := NewRandomWalk(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		prev := m.Position(0)
		for tt := 0.0; tt < cfg.Horizon; tt += 0.5 {
			p := m.Position(tt)
			if cfg.Field.Clamp(p) != p {
				t.Fatalf("seed %d: %v at t=%v outside field", seed, p, tt)
			}
			if d := p.Dist(prev); d > cfg.MaxSpeed()*0.5+1e-6 {
				t.Fatalf("seed %d: jump of %v m in 0.5 s at t=%v", seed, d, tt)
			}
			prev = p
		}
	}
}

func TestRandomWalkValidation(t *testing.T) {
	if _, err := NewRandomWalk(RandomWalkConfig{}, rng.New(1)); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewRandomWalk(RandomWalkConfig{
		Field: geo.NewRect(10, 10), SpeedMean: 5, Epoch: 0, Horizon: 10,
	}, rng.New(1)); err == nil {
		t.Error("zero epoch accepted")
	}
}

func TestManhattanOnGrid(t *testing.T) {
	cfg := ManhattanConfig{
		Field:      geo.NewRect(1000, 1000),
		BlockSize:  100,
		SpeedMean:  10,
		SpeedDelta: 5,
		Horizon:    500,
	}
	m, err := NewManhattan(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	onGrid := func(v float64) bool {
		r := math.Mod(v, cfg.BlockSize)
		return r < 1e-6 || cfg.BlockSize-r < 1e-6
	}
	for tt := 0.0; tt < cfg.Horizon; tt += 0.7 {
		p := m.Position(tt)
		if cfg.Field.Clamp(p) != p {
			t.Fatalf("%v at t=%v outside field", p, tt)
		}
		// A Manhattan position must be on a horizontal or vertical street.
		if !onGrid(p.X) && !onGrid(p.Y) {
			t.Fatalf("%v at t=%v not on any street", p, tt)
		}
	}
}

func TestManhattanValidation(t *testing.T) {
	if _, err := NewManhattan(ManhattanConfig{}, rng.New(1)); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewManhattan(ManhattanConfig{
		Field: geo.NewRect(100, 100), BlockSize: 500, SpeedMean: 10, Horizon: 10,
	}, rng.New(1)); err == nil {
		t.Error("oversized block accepted")
	}
}

func TestStatic(t *testing.T) {
	p := geo.Point{X: 42, Y: 17}
	m := NewStatic(p)
	for _, tt := range []float64{0, 1, 1000, 1e9} {
		if m.Position(tt) != p {
			t.Fatalf("static moved to %v at t=%v", m.Position(tt), tt)
		}
		if m.Velocity(tt) != (geo.Vec{}) {
			t.Fatalf("static has velocity at t=%v", tt)
		}
	}
}

func TestTrajectoryUniformCoverage(t *testing.T) {
	// Sanity: sampled positions should cover all four field quadrants.
	cfg := rwpCfg()
	var quad [4]int
	for seed := uint64(0); seed < 20; seed++ {
		m, _ := NewRandomWaypoint(cfg, rng.New(seed))
		for tt := 0.0; tt < cfg.Horizon; tt += 50 {
			p := m.Position(tt)
			i := 0
			if p.X > 750 {
				i |= 1
			}
			if p.Y > 750 {
				i |= 2
			}
			quad[i]++
		}
	}
	for i, c := range quad {
		if c == 0 {
			t.Errorf("quadrant %d never visited", i)
		}
	}
}

func BenchmarkPositionQuery(b *testing.B) {
	m, _ := NewRandomWaypoint(rwpCfg(), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Position(float64(i%2000) + 0.5)
	}
}

func BenchmarkNewRandomWaypoint(b *testing.B) {
	cfg := rwpCfg()
	for i := 0; i < b.N; i++ {
		_, _ = NewRandomWaypoint(cfg, rng.New(uint64(i)))
	}
}
