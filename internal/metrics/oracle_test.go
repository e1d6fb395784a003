package metrics_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"instantad/internal/core"
	"instantad/internal/experiment"
	"instantad/internal/geo"
	"instantad/internal/metrics"
	"instantad/internal/rng"
	"instantad/internal/roadnet"
	"instantad/internal/workload"
)

// TestCollectorMatchesReference is the differential oracle: the Collector
// and the full-sweep reference observe the same generated runs, and every
// AdReport field (road-coverage peak included) and the delivery-time
// histogram must agree bit for bit. The runs cross every mobility model with
// a small field (every ad's ledger spans all peers) and a large one (compact
// ledgers), twice each, and rotate through sample cadences, churn, an issuer
// going offline, popularity enlargement, mixed radio ranges and roadside
// units.
func TestCollectorMatchesReference(t *testing.T) {
	cadences := []float64{0.5, 1, 3}
	variant := 0
	for _, kind := range experiment.MobilityKinds() {
		for _, side := range []float64{1500, 5000} {
			for second := range 2 {
				v := variant
				variant++
				sc := experiment.DefaultScenario()
				sc.Name = fmt.Sprintf("%v/side=%v/variant=%d", kind, side, v)
				sc.Mobility = kind
				sc.FieldW, sc.FieldH = side, side
				sc.NumPeers = int(200 * side / 1500)
				sc.BlockSize = 250
				sc.SimTime = 130
				sc.Seed = 100 + uint64(v)
				sc.SampleEvery = cadences[v%len(cadences)]
				if v%2 == 1 {
					sc.ChurnOnMean, sc.ChurnOffMean = 40, 15
				}
				if v%3 == 0 {
					sc.Popularity = core.PopularityConfig{
						Enabled: true, F: 8, L: 32, SketchSeed: 99,
						RInc: 50, DInc: 10, RMax: 800, DMax: 240,
					}
				}
				if v%4 == 2 && kind != experiment.RPGM {
					sc.PedestrianFraction = 0.3
				}
				if kind == experiment.Road {
					sc.NumRSU = 5
					if second == 1 {
						sc.RSURange = 300 // longer than any peer's: the ledger must allow for it
					}
				}
				t.Run(sc.Name, func(t *testing.T) { runAgainstReference(t, sc, v) })
			}
		}
	}
}

// runAgainstReference builds sc with the reference chained after the
// collector, issues a handful of ads over the field and compares.
func runAgainstReference(t *testing.T, sc experiment.Scenario, v int) {
	var roadCov *metrics.RoadCoverage
	if sc.Mobility == experiment.Road {
		// The scenario and the reference must measure one road graph: hand
		// it over as a file both load.
		n := int(sc.FieldW/sc.BlockSize) + 1
		g, err := roadnet.Grid(n, n, sc.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		sc.RoadFile = filepath.Join(t.TempDir(), "roads.txt")
		f, err := os.Create(sc.RoadFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if g, err = roadnet.Load(sc.RoadFile); err != nil {
			t.Fatal(err)
		}
		roadCov = metrics.NewRoadCoverage(g, 0)
	}
	sm, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := sm.Net.Channel()
	ref := newRefCollector(sm.Engine, ch, sm.Net.Config().Params, sc.SampleEvery, roadCov)
	sm.Observe(ref)
	if sc.Popularity.Enabled {
		workload.AssignInterests(sm.Net, workload.InterestConfig{Skew: 0.8}, rng.New(sc.Seed))
	}

	// Ads before the first tick, between ticks and late; at the centre, in a
	// corner and near an edge; small and short enough that on the large field
	// most peers can never reach them.
	rnd := rng.New(sc.Seed).Split("ads")
	var handles []*experiment.AdHandle
	for k, at := range []geo.Point{
		{X: sc.FieldW / 2, Y: sc.FieldH / 2},
		{X: 40, Y: 60},
		{X: sc.FieldW - 100, Y: sc.FieldH / 3},
		{X: rnd.Range(0, sc.FieldW), Y: rnd.Range(0, sc.FieldH)},
		{X: rnd.Range(0, sc.FieldW), Y: rnd.Range(0, sc.FieldH)},
	} {
		when := 0.25 + 11.3*float64(k)
		spec := workload.RandomSpec(rnd, k, rnd.Range(150, 500), rnd.Range(30, 70), 0.8)
		handles = append(handles, sm.ScheduleAd(when, at, spec))
	}
	if v%4 == 3 {
		sm.Engine.Schedule(8, func() {
			if ad := handles[0].Ad; ad != nil {
				_ = sm.Net.SetPeerOnline(int(ad.ID.Issuer), false) // known peer: cannot fail
			}
		})
	}
	// At t = 75 the first ad (issued at 0.25, D < 70) has ended and its
	// report is folded, while the last (issued at 45.45, D ≥ 30) is still
	// live: folded and live reports are compared at one instant, then every
	// report once all have ended.
	sm.Engine.Run(75)
	if live := sm.Registry.Snapshot().Gauges["sim_tracked_ads"]; live < 1 || live >= float64(len(handles)) {
		t.Fatalf("t = 75: %v of %d ads live, want some live and some ended", live, len(handles))
	}
	diffReports(t, sm.Metrics, ref)
	sm.Engine.Run(sc.SimTime)
	if live := sm.Registry.Snapshot().Gauges["sim_tracked_ads"]; live != 0 {
		t.Fatalf("t = %v: %v ads still live, want all ended", sc.SimTime, live)
	}
	for k, h := range handles {
		if h.Err != nil || h.Ad == nil {
			t.Fatalf("ad %d not issued: %v", k, h.Err)
		}
	}

	diffReports(t, sm.Metrics, ref)
	entrants := 0
	for id := range ref.tracked {
		entrants += ref.report(id).PassedThrough
	}
	if entrants < 20 {
		t.Errorf("only %d entrants over all ads: the run exercises too little", entrants)
	}
	snap := sm.Registry.Snapshot()
	h := snap.Histograms["sim_delivery_time_seconds"]
	if h.Count != ref.deliveryObs || math.Float64bits(h.Sum) != math.Float64bits(ref.deliverySum) {
		t.Errorf("sim_delivery_time_seconds holds %d observations summing to %v, want %d and %v",
			h.Count, h.Sum, ref.deliveryObs, ref.deliverySum)
	}
	if got := snap.Histograms["sim_collector_sample_seconds"].Count; got != ref.ticks || got == 0 {
		t.Errorf("sim_collector_sample_seconds holds %d observations, want one per tick (%d)", got, ref.ticks)
	}
}
