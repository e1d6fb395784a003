// Command campaign runs a continuous advertising workload — many issuers,
// Poisson arrivals, Zipf categories — and prints the capacity curve:
// delivery quality versus offered load. It is the batch-mode client of the
// campaign control plane: each rate becomes one campaign in a store, run on
// the simulation backend (the live-fleet backend is cmd/campaignd).
//
// Usage:
//
//	campaign                      # sweep 1..12 ads/min at the canonical scale
//	campaign -rates 2,6,12 -peers 500 -cache 5
package main

import (
	"flag"
	"fmt"

	"instantad"
	"instantad/internal/atomicfile"
	"instantad/internal/cli"
)

func main() {
	var (
		peers  = flag.Int("peers", 300, "number of peers")
		cacheK = flag.Int("cache", 10, "per-peer cache capacity")
		radius = flag.Float64("R", 400, "ad radius, m")
		life   = flag.Float64("D", 120, "ad duration, s")
		window = flag.Float64("window", 600, "injection window, s")
		rates  = flag.String("rates", "1,2,4,8,12", "ads/minute sweep (comma-separated)")
		skew   = flag.Float64("skew", 0.8, "category Zipf skew")
		percat = flag.Bool("per-category", false, "print per-category breakdown at the last rate")
		metOut = flag.String("metrics-out", "", "write the last rate's metrics-registry snapshot as JSON to this file at exit")
		seed   = flag.Uint64("seed", 1, "base random seed")
	)
	flag.Parse()

	apm, err := cli.Floats(*rates, true)
	if err != nil {
		cli.Usage("campaign", "-rates: %v", err)
	}

	sc := instantad.DefaultScenario()
	sc.NumPeers = *peers
	sc.CacheK = *cacheK
	sc.Seed = *seed
	sc.SimTime = 60 + *window + *life + 60

	base := instantad.CampaignConfig{
		Start:        60,
		End:          60 + *window,
		R:            *radius,
		D:            *life,
		RJitter:      *radius / 10,
		DJitter:      *life / 10,
		CategorySkew: *skew,
	}

	fmt.Printf("capacity curve: %d peers, cache k=%d, ads R=%.0fm D=%.0fs, %.0fs window\n\n",
		*peers, *cacheK, *radius, *life, *window)
	fmt.Printf("%10s %6s %14s %15s %10s %10s\n",
		"ads/min", "ads", "mean delivery", "worst delivery", "messages", "evictions")

	// Thin client of the control plane's store: the sweep populates one
	// campaign per rate, so the same ledger that backs campaignd's HTTP API
	// answers the batch questions here.
	store := instantad.NewCampaignStore()
	reports, err := store.RunBatch(sc, base, apm)
	cli.FatalIf("campaign", err)
	for i, rep := range reports {
		fmt.Printf("%10.1f %6d %13.1f%% %14.1f%% %10d %10d\n",
			apm[i], rep.AdsIssued, rep.MeanDelivery, rep.WorstDelivery, rep.TotalMessages, rep.Evictions)
	}

	if *percat {
		last := reports[len(reports)-1]
		fmt.Printf("\nper-category at %.1f ads/min:\n", apm[len(apm)-1])
		for _, cr := range last.ByCategory {
			fmt.Printf("  %-12s %3d ads, %5.1f%% delivery, %6d messages\n",
				cr.Category, cr.Ads, cr.DeliveryRate, cr.Messages)
		}
	}

	if *metOut != "" {
		cli.FatalIf("campaign", atomicfile.WriteJSON(*metOut, reports[len(reports)-1].Metrics))
	}
}
