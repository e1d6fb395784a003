package experiment

import (
	"strings"
	"testing"

	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/obs"
	"instantad/internal/rng"
	"instantad/internal/workload"
)

// TestRegistryPopulatedByRun asserts the tentpole wiring end to end: one
// scenario run must feed counters, gauges and histograms from both the
// executor (sim_batches_total, phase timings) and the observer chain
// (sim_messages_total, delivery-time and postponement histograms), and the
// resulting exposition must parse as valid Prometheus text.
func TestRegistryPopulatedByRun(t *testing.T) {
	sc := DefaultScenario()
	sc.NumPeers = 40
	sc.FieldW, sc.FieldH = 500, 500
	sc.SimTime = 200
	sc.Protocol = core.GossipOpt // Opt2 half exercises the postpone path

	sm, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := sm.ScheduleAd(sc.IssueTime, sc.issueAt(), core.AdSpec{
		R: sc.R, D: sc.D, Category: sc.Category, Text: "obs test",
	})
	sm.Engine.Run(sc.SimTime)
	if h.Err != nil || h.Ad == nil {
		t.Fatalf("ad issue failed: %v", h.Err)
	}

	snap := sm.Registry.Snapshot()
	for _, name := range []string{
		"sim_messages_total", "sim_bytes_total",
		"sim_batches_total", "sim_events_dispatched_total",
		"radio_grid_rebuilds_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
	// The instruments of the deleted intra-run parallel engine and of the
	// deleted decide/commit split are gone, by family. (bench/ still reads
	// sim_worker_utilization and sim_phase_commit_seconds, and reads 0 from
	// their absence, until it drops those rows.)
	gone := []string{"sim_worker", "sim_shard_", "sim_batches_inline_total",
		"radio_shard", "radio_halo_", "radio_cross_shard_", "sim_phase_commit_seconds"}
	var sb strings.Builder
	if err := sm.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for name := range families {
		for _, prefix := range gone {
			if strings.HasPrefix(name, prefix) {
				t.Errorf("registry still carries %s", name)
			}
		}
	}
	// Everything else bench/simrun.go reads is observed: the counters above
	// and these histograms.
	for _, name := range []string{
		"sim_batch_size", "sim_phase_prepare_seconds", "sim_phase_decide_seconds",
		"radio_grid_rebuild_seconds",
		"sim_delivery_time_seconds", "sim_postpone_delay_seconds",
		"sim_collector_sample_seconds",
	} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %s has no observations", name)
		}
	}

	if families["sim_messages_total"].Type != "counter" {
		t.Errorf("sim_messages_total family = %+v", families["sim_messages_total"])
	}
	if families["sim_delivery_time_seconds"].Type != "histogram" {
		t.Errorf("sim_delivery_time_seconds family = %+v", families["sim_delivery_time_seconds"])
	}
}

// TestOverflowCountersOnStorm runs a storm-shaped scenario — the benchmark's
// ad_storm at a fifth of its size: overlapping ads in the central half of the
// field, small caches, popularity sketches on — and reads the overflow
// shortcut's hit rate off the registry: nearly every overflow is decided from
// scores, and in a good half of them the arriving ad is the one that loses.
func TestOverflowCountersOnStorm(t *testing.T) {
	rnd := rng.New(7)
	sc := DefaultScenario()
	sc.NumPeers = 200
	sc.FieldW, sc.FieldH = 700, 700
	sc.CacheK = 5
	sc.D = 120
	sc.Popularity = core.PopularityConfig{Enabled: true, F: 8, L: 32, SketchSeed: 3, RInc: 50, DInc: 10, RMax: 800, DMax: 240}
	const numAds = 60
	gap := sc.RoundTime / 8
	sc.SimTime = sc.IssueTime + numAds*gap + sc.D + 30
	sm, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	workload.AssignInterests(sm.Net, workload.InterestConfig{Skew: 0.8}, rnd.Split("interests"))
	for i := 0; i < numAds; i++ {
		at := geo.Point{X: rnd.Range(sc.FieldW/4, 3*sc.FieldW/4), Y: rnd.Range(sc.FieldH/4, 3*sc.FieldH/4)}
		sm.ScheduleAd(sc.IssueTime+float64(i)*gap, at, workload.RandomSpec(rnd, i, sc.R, sc.D, 0.8))
	}
	sm.Engine.Run(sc.SimTime)

	c := sm.Registry.Snapshot().Counters
	total, dropped, exact := c["core_overflow_total"], c["core_overflow_newcomer_dropped_total"], c["core_overflow_exact_total"]
	t.Logf("%d overflows, %d newcomers dropped, %d ranked by Formulas 1-3; %d evictions", total, dropped, exact, c["sim_evictions_total"])
	if total < 10_000 || total != c["sim_evictions_total"] {
		t.Fatalf("core_overflow_total = %d with %d evictions: want at least 10000, and one eviction each", total, c["sim_evictions_total"])
	}
	if exact*1000 >= total {
		t.Errorf("core_overflow_exact_total = %d of %d overflows, want under 1 in 1000", exact, total)
	}
	if share := float64(dropped) / float64(total); share <= 0.3 || share >= 0.9 {
		t.Errorf("core_overflow_newcomer_dropped_total = %d of %d overflows (%.2f), want between 0.3 and 0.9", dropped, total, share)
	}
}

// TestRegistryScopedPerRun guards the long-lived-process contract: repeated
// Scenario runs in one process (the cmd/figures sweeps) must not inherit
// instruments or values from an earlier run — in particular, an open-field
// run after an urban one must not expose a stale sim_road_coverage gauge.
// Build scopes every run to a fresh registry; this pins that, plus value
// equality across back-to-back identical runs.
func TestRegistryScopedPerRun(t *testing.T) {
	road := roadScenario()
	road.NumRSU = 2
	sm1, err := road.Build()
	if err != nil {
		t.Fatal(err)
	}
	sm1.ScheduleAd(road.IssueTime, road.issueAt(), core.AdSpec{
		R: road.R, D: road.D, Category: road.Category, Text: "urban run",
	})
	sm1.Engine.Run(road.SimTime)
	snap1 := sm1.Registry.Snapshot()
	if _, ok := snap1.Gauges["sim_road_coverage"]; !ok {
		t.Fatal("urban run missing sim_road_coverage (test premise broken)")
	}
	if snap1.Counters["sim_messages_total"] == 0 {
		t.Fatal("urban run sent no messages (test premise broken)")
	}

	// Second run, same process, open field: its registry must start clean.
	plain := quickScenario()
	sm2, err := plain.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap2 := sm2.Registry.Snapshot()
	for _, stale := range []string{"sim_road_coverage", "sim_road_edges", "sim_road_peers", "sim_rsus"} {
		if _, ok := snap2.Gauges[stale]; ok {
			t.Errorf("open-field run inherited %s from the previous urban run", stale)
		}
	}
	if got := snap2.Counters["sim_messages_total"]; got != 0 {
		t.Errorf("fresh run starts with sim_messages_total = %d, want 0", got)
	}

	// Identical back-to-back runs must expose identical counter values —
	// carry-over in either direction would break one side.
	r1, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Messages != r2.Messages || r1.DeliveryRate != r2.DeliveryRate {
		t.Errorf("back-to-back identical runs diverged: %v/%v msgs, %v/%v delivery",
			r1.Messages, r2.Messages, r1.DeliveryRate, r2.DeliveryRate)
	}
}
