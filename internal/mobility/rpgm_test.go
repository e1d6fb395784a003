package mobility

import (
	"testing"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

func rpgmCfg() RPGMConfig {
	return RPGMConfig{
		Field:       geo.NewRect(1000, 1000),
		GroupSize:   4,
		GroupRadius: 50,
		SpeedMean:   10,
		SpeedDelta:  3,
		MemberSpeed: 2,
		Pause:       5,
		Horizon:     600,
	}
}

func TestRPGMValidation(t *testing.T) {
	mutations := []func(*RPGMConfig){
		func(c *RPGMConfig) { c.Field = geo.Rect{} },
		func(c *RPGMConfig) { c.GroupSize = 0 },
		func(c *RPGMConfig) { c.GroupRadius = 0 },
		func(c *RPGMConfig) { c.SpeedMean = 0 },
		func(c *RPGMConfig) { c.SpeedDelta = 20 },
		func(c *RPGMConfig) { c.MemberSpeed = 0 },
		func(c *RPGMConfig) { c.Pause = -1 },
		func(c *RPGMConfig) { c.Horizon = 0 },
	}
	for i, mutate := range mutations {
		c := rpgmCfg()
		mutate(&c)
		if _, err := NewRPGMGroup(c, rng.New(1)); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRPGMGroupCohesion(t *testing.T) {
	cfg := rpgmCfg()
	group, err := NewRPGMGroup(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != cfg.GroupSize {
		t.Fatalf("group size %d", len(group))
	}
	// Any two members are within 2·GroupRadius (both within GroupRadius of
	// the shared reference), up to field clamping which only pulls inward.
	for tt := 0.0; tt < cfg.Horizon; tt += 7 {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				d := group[i].Position(tt).Dist(group[j].Position(tt))
				if d > 2*cfg.GroupRadius+1e-9 {
					t.Fatalf("members %d,%d drifted %v apart at t=%v", i, j, d, tt)
				}
			}
		}
	}
}

func TestRPGMInBoundsAndContinuous(t *testing.T) {
	cfg := rpgmCfg()
	group, err := NewRPGMGroup(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	vmax := cfg.MaxSpeed()
	for _, m := range group {
		prev := m.Position(0)
		for tt := 0.5; tt < cfg.Horizon; tt += 0.5 {
			p := m.Position(tt)
			if cfg.Field.Clamp(p) != p {
				t.Fatalf("position %v outside field at t=%v", p, tt)
			}
			if d := p.Dist(prev); d > vmax*0.5+1e-6 {
				t.Fatalf("jump of %v m in 0.5 s at t=%v (vmax %v)", d, tt, vmax)
			}
			prev = p
		}
	}
}

func TestRPGMGroupsMoveIndependently(t *testing.T) {
	cfg := rpgmCfg()
	g1, _ := NewRPGMGroup(cfg, rng.New(1).Split("a"))
	g2, _ := NewRPGMGroup(cfg, rng.New(1).Split("b"))
	apart := false
	for tt := 0.0; tt < cfg.Horizon; tt += 20 {
		if g1[0].Position(tt).Dist(g2[0].Position(tt)) > 4*cfg.GroupRadius {
			apart = true
			break
		}
	}
	if !apart {
		t.Error("two groups never separated — references look shared")
	}
}

func TestRPGMPopulation(t *testing.T) {
	cfg := rpgmCfg()
	models, err := NewRPGMPopulation(10, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 10 {
		t.Fatalf("population %d", len(models))
	}
	// 10 members at group size 4 → groups of 4, 4, 2. Check the last pair is
	// cohesive (they share a reference) while first and last are not forced
	// together.
	d := models[8].Position(100).Dist(models[9].Position(100))
	if d > 2*cfg.GroupRadius+1e-9 {
		t.Errorf("tail group not cohesive: %v apart", d)
	}
	if _, err := NewRPGMPopulation(0, cfg, rng.New(5)); err == nil {
		t.Error("population 0 accepted")
	}
}

func TestRPGMDeterministic(t *testing.T) {
	cfg := rpgmCfg()
	a, _ := NewRPGMPopulation(6, cfg, rng.New(9))
	b, _ := NewRPGMPopulation(6, cfg, rng.New(9))
	for i := range a {
		for tt := 0.0; tt < 200; tt += 13 {
			if a[i].Position(tt) != b[i].Position(tt) {
				t.Fatalf("member %d diverged at t=%v", i, tt)
			}
		}
	}
}

func TestRPGMVelocityBounded(t *testing.T) {
	cfg := rpgmCfg()
	group, _ := NewRPGMGroup(cfg, rng.New(7))
	vmax := cfg.MaxSpeed()
	for tt := 0.0; tt < cfg.Horizon; tt += 3 {
		if v := group[0].Velocity(tt).Len(); v > vmax+1e-9 {
			t.Fatalf("velocity %v exceeds %v at t=%v", v, vmax, tt)
		}
	}
}
