// Command figures regenerates the paper's evaluation figures as text
// tables: one row per X value, one column per series.
//
// Usage:
//
//	figures                 # every figure at full scale
//	figures -fig fig7       # one figure (fig2 fig3 fig5 fig7 fig8 fig9
//	                        #   fig10a fig10b fig10c beta fm contention
//	                        #   popularity spread capacity comparator
//	                        #   rsu async sensitivity)
//	figures -fig rsu -rsu 0,4,8,16            # coverage vs roadside units
//	figures -fig rsu -road city.txt           # ... on an imported road graph
//	figures -quick          # scaled-down sweeps for a fast sanity pass
//	figures -reps 5         # more seeds per point
//	figures -fig fig7 -cpuprofile cpu.pprof   # profile a sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"instantad"
	"instantad/internal/cli"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "which figure to regenerate")
		reps       = flag.Int("reps", 3, "seeds per point")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast pass")
		quiet      = flag.Bool("q", false, "suppress progress lines")
		chart      = flag.Bool("chart", false, "render ASCII charts alongside the tables")
		csvDir     = flag.String("csv", "", "also write each figure as <dir>/<id>.csv")
		roadFile   = flag.String("road", "", "road graph file for the rsu figure (empty = synthetic grid)")
		rsuCounts  = flag.String("rsu", "", "comma-separated RSU counts for the rsu figure (default 0,2,4,8)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		seed       = flag.Uint64("seed", 1, "base random seed")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	base := instantad.DefaultScenario()
	base.Seed = *seed
	opts := instantad.RunOpts{Reps: *reps, Base: base}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}
	if *quick {
		base.SimTime = 400
		opts.Base = base
		opts.Sizes = []int{100, 300, 600, 1000}
		opts.Speeds = []float64{5, 15, 30}
		if *reps == 3 {
			opts.Reps = 1
		}
	}
	show := func(f instantad.Figure, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(f.Render())
		if *chart {
			fmt.Println(f.Chart(72, 18))
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, f.ID+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	want := func(name string) bool { return *fig == "all" || strings.EqualFold(*fig, name) }

	if want("fig2") {
		show(instantad.Fig2(), nil)
	}
	if want("fig3") {
		show(instantad.Fig3(), nil)
	}
	if want("fig5") {
		show(instantad.Fig5(), nil)
	}
	if want("fig7") {
		a, b, c, err := instantad.Fig7(opts)
		show(a, err)
		show(b, nil)
		show(c, nil)
	}
	if want("fig8") {
		a, b, c, err := instantad.Fig8(opts)
		show(a, err)
		show(b, nil)
		show(c, nil)
	}
	if want("fig9") {
		f, err := instantad.Fig9(opts)
		show(f, err)
	}
	if want("fig10a") {
		f, err := instantad.Fig10a(opts)
		show(f, err)
	}
	if want("fig10b") {
		f, err := instantad.Fig10b(opts)
		show(f, err)
	}
	if want("fig10c") {
		f, err := instantad.Fig10c(opts)
		show(f, err)
	}
	if want("beta") {
		f, err := instantad.FigBetaSensitivity(opts)
		show(f, err)
	}
	if want("fm") {
		show(instantad.FigFMAccuracy(), nil)
	}
	if want("contention") {
		f, err := instantad.FigAdContention(opts)
		show(f, err)
	}
	if want("popularity") {
		f, err := instantad.FigPopularityDynamics(opts)
		show(f, err)
	}
	if want("spread") {
		f, err := instantad.FigSpreadCurve(opts)
		show(f, err)
	}
	if want("capacity") {
		sc := instantad.DefaultScenario()
		sc.SimTime = 900
		base := instantad.CampaignConfig{
			Start: 60, End: 660, R: 400, D: 120,
			RJitter: 40, DJitter: 12, CategorySkew: 0.8,
		}
		f, err := instantad.FigCapacity(sc, base, []float64{1, 2, 4, 8, 12})
		show(f, err)
	}
	if want("rsu") {
		counts, err := cli.Ints(*rsuCounts)
		if err != nil {
			cli.Usage("figures", "-rsu: %v", err)
		}
		// The road file only applies to the road sweep — Validate rejects it
		// on the open-field figures — so mutate a local copy of the options.
		ropts := opts
		ropts.Base.RoadFile = *roadFile
		f, err := instantad.FigRSUCoverage(ropts, counts)
		show(f, err)
	}
	if want("async") {
		a, b, err := instantad.FigAsync(opts)
		show(a, err)
		show(b, nil)
	}
	if want("comparator") {
		f, err := instantad.FigComparator(opts)
		show(f, err)
	}
	if want("sensitivity") {
		rep, err := instantad.Sensitivity(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(rep.Render())
	}
}
