// Command campaign runs a continuous advertising workload — many issuers,
// Poisson arrivals, Zipf categories — and prints the capacity curve:
// delivery quality versus offered load. Each rate runs on a fresh simulation
// (the live-fleet backend of the campaign control plane is cmd/campaignd).
//
// Usage:
//
//	campaign                      # sweep 1..12 ads/min at the canonical scale
//	campaign -rates 2,6,12 -peers 500 -cache 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"instantad"
	"instantad/internal/atomicfile"
	"instantad/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is campaign on the given arguments and streams. It returns the exit
// code: 2 for a bad invocation (flags or the scenario and campaign they
// make), 1 for a sweep that failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		peers  = fs.Int("peers", 300, "number of peers")
		cacheK = fs.Int("cache", 10, "per-peer cache capacity")
		radius = fs.Float64("R", 400, "ad radius, m")
		life   = fs.Float64("D", 120, "ad duration, s")
		window = fs.Float64("window", 600, "injection window, s")
		rates  = fs.String("rates", "1,2,4,8,12", "ads/minute sweep (comma-separated)")
		skew   = fs.Float64("skew", 0.8, "category Zipf skew")
		percat = fs.Bool("per-category", false, "print per-category breakdown at the last rate")
		metOut = fs.String("metrics-out", "", "write the last rate's metrics-registry snapshot as JSON to this file at exit")
		seed   = fs.Uint64("seed", 1, "base random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "campaign: %v\n", err)
		return code
	}

	apm, err := cli.Floats(*rates, true)
	if err != nil {
		return fail(2, fmt.Errorf("-rates: %v", err))
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
	// Validate before any run, so bad flags exit 2 at once.
	check := base
	check.ArrivalRate = apm[0] / 60
	if err := sc.Validate(); err != nil {
		return fail(2, err)
	}
	if err := check.Validate(); err != nil {
		return fail(2, err)
	}

	fmt.Fprintf(stdout, "capacity curve: %d peers, cache k=%d, ads R=%.0fm D=%.0fs, %.0fs window\n\n",
		*peers, *cacheK, *radius, *life, *window)
	fmt.Fprintf(stdout, "%10s %6s %14s %15s %10s %10s\n",
		"ads/min", "ads", "mean delivery", "worst delivery", "messages", "evictions")

	reports, err := instantad.CampaignSweep(sc, base, apm)
	if err != nil {
		return fail(1, err)
	}
	for i, rep := range reports {
		fmt.Fprintf(stdout, "%10.1f %6d %13.1f%% %14.1f%% %10d %10d\n",
			apm[i], rep.AdsIssued, rep.MeanDelivery, rep.WorstDelivery, rep.TotalMessages, rep.Evictions)
	}

	last := reports[len(reports)-1]
	if *percat {
		fmt.Fprintf(stdout, "\nper-category at %.1f ads/min:\n", apm[len(apm)-1])
		for _, cr := range last.ByCategory {
			fmt.Fprintf(stdout, "  %-12s %3d ads, %5.1f%% delivery, %6d messages\n",
				cr.Category, cr.Ads, cr.DeliveryRate, cr.Messages)
		}
	}
	if *metOut != "" {
		if err := atomicfile.WriteJSON(*metOut, last.Metrics); err != nil {
			return fail(1, err)
		}
	}
	return 0
}
