package experiment

import (
	"fmt"

	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/workload"
)

// MultiAdSummary aggregates a run in which several advertisements with
// overlapping areas compete for the peers' top-k caches — the regime the
// paper's Store & Forward eviction rule (Algorithm 1) is designed for.
type MultiAdSummary struct {
	NumAds           int
	MeanDeliveryRate float64 // percent, averaged over ads
	MinDeliveryRate  float64 // the worst-served ad
	TotalMessages    uint64
	Evictions        uint64
}

// RunMultiAd executes the scenario with numAds concurrent advertisements
// instead of one. Ads are issued at uniformly random positions within the
// central half of the field (so their areas overlap), in random categories,
// staggered one gossip round apart.
func RunMultiAd(sc Scenario, numAds int) (MultiAdSummary, error) {
	if numAds < 1 {
		return MultiAdSummary{}, fmt.Errorf("experiment: numAds %d < 1", numAds)
	}
	sm, err := sc.Build()
	if err != nil {
		return MultiAdSummary{}, err
	}
	rnd := sm.Rand("multiad")
	handles := make([]*AdHandle, numAds)
	for i := 0; i < numAds; i++ {
		// Central half of the field: guaranteed area overlap at R ≥ W/4.
		at := geo.Point{
			X: rnd.Range(sc.FieldW/4, 3*sc.FieldW/4),
			Y: rnd.Range(sc.FieldH/4, 3*sc.FieldH/4),
		}
		spec := workload.RandomSpec(rnd, i, sc.R, sc.D, 0.8)
		handles[i] = sm.ScheduleAd(sc.IssueTime+float64(i)*sc.RoundTime, at, spec)
	}
	sm.Engine.Run(sc.SimTime)

	sum := MultiAdSummary{NumAds: numAds, MinDeliveryRate: 101}
	for i, h := range handles {
		if h.Err != nil {
			return MultiAdSummary{}, fmt.Errorf("ad %d: %w", i, h.Err)
		}
		rep, err := sm.Metrics.Report(h.Ad.ID)
		if err != nil {
			return MultiAdSummary{}, err
		}
		sum.MeanDeliveryRate += rep.DeliveryRate
		if rep.DeliveryRate < sum.MinDeliveryRate {
			sum.MinDeliveryRate = rep.DeliveryRate
		}
	}
	sum.MeanDeliveryRate /= float64(numAds)
	sum.TotalMessages = sm.Metrics.TotalMessages()
	sum.Evictions = sm.Metrics.Evictions()
	return sum, nil
}

// FigAdContention is this repo's extension experiment: delivery quality as
// the number of concurrent overlapping ads grows past the cache capacity,
// for a tight (k = 2) and the canonical (k = 10) cache. The paper's
// eviction rule keeps nearby/fresh ads and sheds distant/old ones, so the
// tight cache should degrade gracefully rather than collapse.
func FigAdContention(o RunOpts) (Figure, error) {
	o = o.withDefaults()
	f := Figure{
		ID: "contention", Title: "Cache contention under concurrent ads (Optimized Gossiping)",
		XLabel: "Concurrent Ads", YLabel: "Mean Delivery Rate (%) / Evictions",
	}
	xs := []float64{1, 2, 5, 10, 20}
	ks := []int{2, 10}
	var curves []curve
	for _, k := range ks {
		curves = append(curves, curve{fmt.Sprintf("contention k=%d ads", k), func(sc *Scenario, _ float64) {
			sc.Protocol = core.GossipOpt
			sc.CacheK = k
		}})
	}
	runs, err := sweepCurves(o, curves, xs, func(sc Scenario, x float64) (MultiAdSummary, error) {
		return RunMultiAd(sc, int(x))
	}, func(rs []MultiAdSummary) string {
		return fmt.Sprintf("delivery=%6.2f%% evictions=%6.0f", meanDelivery(rs), meanEvictions(rs))
	})
	if err != nil {
		return Figure{}, err
	}
	for i, k := range ks {
		f.Series = append(f.Series,
			plot(fmt.Sprintf("delivery k=%d", k), xs, runs[i], meanDelivery),
			plot(fmt.Sprintf("evictions k=%d", k), xs, runs[i], meanEvictions))
	}
	return f, nil
}

// The seed means FigAdContention plots.
var (
	meanDelivery  = mean(func(s MultiAdSummary) float64 { return s.MeanDeliveryRate })
	meanEvictions = mean(func(s MultiAdSummary) float64 { return float64(s.Evictions) })
)
