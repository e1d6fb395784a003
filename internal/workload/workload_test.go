package workload

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// drawAll draws n peers' interest sets the way AssignInterests does.
func drawAll(n int, cfg InterestConfig, rnd *rng.Stream) [][]string {
	cfg = cfg.withDefaults()
	out := make([][]string, n)
	for i := range out {
		out[i] = cfg.draw(rnd)
	}
	return out
}

func TestAssignInterestsCoversAllPeers(t *testing.T) {
	for i, in := range drawAll(50, InterestConfig{}, rng.New(2)) {
		if len(in) < 1 || len(in) > 3 {
			t.Errorf("peer %d has %d interests, want 1..3", i, len(in))
		}
		for _, k := range in {
			if !slices.Contains(Categories, k) {
				t.Errorf("peer %d has unknown interest %q", i, k)
			}
		}
	}
}

func TestAssignInterestsSkewFavorsTopCategories(t *testing.T) {
	counts := make(map[string]int)
	for _, in := range drawAll(400, InterestConfig{Skew: 1.5, MaxPerPeer: 1}, rng.New(3)) {
		for _, k := range in {
			counts[k]++
		}
	}
	if counts[Categories[0]] <= counts[Categories[len(Categories)-1]] {
		t.Errorf("skewed assignment not skewed: %v", counts)
	}
}

// TestAssignInterestsDeterministic checks that a seed fixes every peer's
// draw, and that AssignInterests takes exactly one draw per peer from its
// stream.
func TestAssignInterestsDeterministic(t *testing.T) {
	a := drawAll(20, InterestConfig{}, rng.New(7))
	if b := drawAll(20, InterestConfig{}, rng.New(7)); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different interests: %v vs %v", a, b)
	}
	models := make([]mobility.Model, 20)
	for i := range models {
		models[i] = mobility.NewStatic(geo.Point{X: float64(i), Y: 0})
	}
	net, err := core.New(sim.New(), radio.DefaultConfig(), models, core.Config{
		Protocol:  core.Gossip,
		Params:    core.ProbParams{Alpha: 0.5, Beta: 0.5},
		RoundTime: 5,
		CacheK:    10,
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	assigned, drawn := rng.New(7), rng.New(7)
	AssignInterests(net, InterestConfig{}, assigned)
	drawAll(20, InterestConfig{}, drawn)
	if assigned.Uint64() != drawn.Uint64() {
		t.Error("AssignInterests did not take one draw per peer")
	}
}

func TestCustomCategories(t *testing.T) {
	for i, in := range drawAll(10, InterestConfig{Categories: []string{"only"}, MaxPerPeer: 2}, rng.New(4)) {
		if len(in) != 1 || in[0] != "only" {
			t.Errorf("peer %d interests = %v", i, in)
		}
	}
}

func TestAdTextNonEmptyForAllCategories(t *testing.T) {
	for _, c := range Categories {
		for seq := 0; seq < 3; seq++ {
			if AdText(c, seq) == "" {
				t.Errorf("empty text for %s/%d", c, seq)
			}
		}
	}
	if !strings.Contains(AdText("custom-cat", 5), "custom-cat") {
		t.Error("fallback text should mention the category")
	}
}

func TestSpecAndRandomSpec(t *testing.T) {
	s := Spec("petrol", 0, 500, 180)
	if s.Category != "petrol" || s.R != 500 || s.D != 180 || s.Text == "" {
		t.Errorf("spec = %+v", s)
	}
	r := rng.New(9)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		rs := RandomSpec(r, i, 400, 120, 1.0)
		if rs.R != 400 || rs.D != 120 {
			t.Fatalf("random spec params wrong: %+v", rs)
		}
		seen[rs.Category] = true
	}
	if len(seen) < 3 {
		t.Errorf("random specs drew only %d categories", len(seen))
	}
}
