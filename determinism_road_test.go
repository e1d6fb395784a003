package instantad_test

import (
	"reflect"
	"runtime"
	"testing"

	"instantad/internal/core"
	"instantad/internal/experiment"
)

// TestRunDeterminismRoadRSU extends the worker/shard equivalence gate to the
// urban VANET family: road-constrained mobility, roadside units with their
// wired backhaul round, and the road-coverage measurement must all be
// bit-identical for any worker count and any tile-stripe count. The specific
// hazards pinned down: RSU placement draws from a dedicated split stream (not
// the per-peer streams workers touch), the backhaul is a sequential
// commit-phase round outside the radio entirely, forced RSU relay
// probabilities are draw-free so mobile peers' streams stay aligned, and the
// coverage measurer reads only pure channel queries.
func TestRunDeterminismRoadRSU(t *testing.T) {
	base := experiment.DefaultScenario()
	base.SimTime = 400
	base.Mobility = experiment.Road

	oversub := runtime.GOMAXPROCS(0) + 1 // >1 even on a single-core host

	cases := []struct {
		name string
		mut  func(*experiment.Scenario)
	}{
		// No RSUs: pure road mobility plus the coverage measurer.
		{"road-no-rsu", func(sc *experiment.Scenario) {}},
		{"road-rsu-spread", func(sc *experiment.Scenario) {
			sc.NumRSU = 4
			sc.RSURange = 200
		}},
		{"road-rsu-opt2-impaired", func(sc *experiment.Scenario) {
			sc.Protocol = core.GossipOpt2
			sc.NumRSU = 6
			sc.RSUPlacement = "degree"
			sc.LossRate = 0.1
			sc.ChurnOnMean = 300
			sc.ChurnOffMean = 60
		}},
		// Whole rounds on one slot, so the pool (not the inline path) decides
		// next to the sequential backhaul round.
		{"road-rsu-wide", func(sc *experiment.Scenario) {
			sc.Protocol = core.GossipOpt1
			sc.NumRSU = 4
			sc.RSURange = 200
			wideRounds(sc)
		}},
	}
	grids := []struct {
		shards, workers int
	}{
		{1, oversub},
		{4, 2},
		{oversub, oversub + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := base
			tc.mut(&ref)
			ref.Shards, ref.Workers = 1, 1
			want := runFingerprint(t, ref)
			if want.Result.Coverage <= 0 {
				t.Fatal("road run measured no coverage; fingerprint cannot discriminate")
			}
			checkPoolUse(t, ref, want)
			for _, g := range grids {
				sc := ref
				sc.Shards, sc.Workers = g.shards, g.workers
				got := runFingerprint(t, sc)
				checkPoolUse(t, sc, got)
				if !reflect.DeepEqual(want.Stats, got.Stats) {
					t.Errorf("channel stats diverged between shards=1/workers=1 and shards=%d/workers=%d:\n  ref: %+v\n  got: %+v",
						g.shards, g.workers, want.Stats, got.Stats)
				}
				if !reflect.DeepEqual(want.Result, got.Result) {
					t.Errorf("results diverged between shards=1/workers=1 and shards=%d/workers=%d:\n  ref: %+v\n  got: %+v",
						g.shards, g.workers, want.Result, got.Result)
				}
			}
		})
	}
}
