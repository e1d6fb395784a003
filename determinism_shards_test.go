package instantad_test

import (
	"reflect"
	"runtime"
	"testing"

	"instantad/internal/core"
	"instantad/internal/experiment"
)

// TestRunDeterminismAcrossShards is the sharded engine's equivalence gate:
// the same scenario must produce bit-for-bit identical metrics and channel
// counters whether the field is one tile or many, with any worker count.
// The contract this verifies end to end: tile stripes are windows over the
// same CSR snapshot the unsharded build produces (same cells, same
// candidate order, same RNG draw sequences), peers migrate between stripes
// only at batch boundaries, and cross-stripe deliveries commit in the same
// global (time, seq) order as everything else.
func TestRunDeterminismAcrossShards(t *testing.T) {
	base := experiment.DefaultScenario()
	base.SimTime = 400

	oversub := runtime.GOMAXPROCS(0) + 1 // >1 even on a single-core host

	cases := []struct {
		name string
		mut  func(*experiment.Scenario)
	}{
		{"optimized-gossiping", func(sc *experiment.Scenario) { sc.Protocol = core.GossipOpt }},
		{"impaired-channel-churn", func(sc *experiment.Scenario) {
			sc.Protocol = core.GossipOpt
			sc.Collisions = true
			sc.LossRate = 0.1
			sc.FadeZone = 20
			sc.ChurnOnMean = 300
			sc.ChurnOffMean = 60
		}},
		{"high-mobility-tile-crossings", func(sc *experiment.Scenario) {
			// Fast Manhattan traffic sweeps peers across stripe edges at
			// nearly every grid refresh — the heaviest migration load.
			sc.Protocol = core.GossipOpt
			sc.Mobility = experiment.Manhattan
			sc.SpeedMean = 25
			sc.SpeedDelta = 5
		}},
		{"optimized-gossiping-2", func(sc *experiment.Scenario) { sc.Protocol = core.GossipOpt2 }},
		// Async pairwise handshakes are carried by unicast delivery events
		// that may cross stripe edges mid-exchange; each k must stay
		// bit-identical when the field is split into tiles.
		{"async-k1-churn-impaired", func(sc *experiment.Scenario) { asyncImpaired(sc, 1) }},
		{"async-k2-churn-impaired", func(sc *experiment.Scenario) { asyncImpaired(sc, 2) }},
		{"async-k3-churn-impaired", func(sc *experiment.Scenario) { asyncImpaired(sc, 3) }},
		{"relevance-exchange-churn-impaired", relevanceImpaired},
		// Whole rounds on one slot: the only cases here whose batches are wide
		// enough to be shard-routed onto the pool instead of decided inline.
		{"wide-optimized-gossiping", func(sc *experiment.Scenario) { sc.Protocol = core.GossipOpt; wideRounds(sc) }},
		{"wide-gossiping-tile-crossings", func(sc *experiment.Scenario) {
			sc.Protocol = core.Gossip
			sc.Mobility = experiment.Manhattan
			sc.SpeedMean = 25
			sc.SpeedDelta = 5
			wideRounds(sc)
		}},
	}
	grids := []struct {
		shards, workers int
	}{
		{4, 2},
		{oversub, oversub + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := base
			tc.mut(&ref)
			ref.Shards, ref.Workers = 1, 1
			want := runFingerprint(t, ref)
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
