// Command figures regenerates the paper's evaluation figures as text
// tables: one row per X value, one column per series.
//
// Usage:
//
//	figures                 # every figure at full scale
//	figures -fig fig7       # one figure (fig2 fig3 fig5 fig7 fig8 fig9
//	                        #   fig10a fig10b fig10c beta fm contention
//	                        #   popularity spread capacity rsu async
//	                        #   comparator sensitivity)
//	figures -fig rsu -rsu 0,4,8,16            # coverage vs roadside units
//	figures -fig rsu -road city.txt           # ... on an imported road graph
//	figures -quick          # scaled-down sweeps, one seed unless -reps is set
//	figures -reps 5         # more seeds per point
//	figures -fig fig7 -cpuprofile cpu.pprof   # profile a sweep
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"instantad"
	"instantad/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// printer writes figures the way the output flags ask.
type printer struct {
	opts   instantad.RunOpts
	out    io.Writer
	chart  bool
	csvDir string
	road   string // road graph file for the rsu sweep
	rsu    []int  // RSU counts for the rsu sweep
}

// show prints each figure, with its chart and CSV file when asked. The
// generator's error comes first so show can take a generator's results as
// they are.
func (p *printer) show(err error, figs ...instantad.Figure) error {
	if err != nil {
		return err
	}
	for _, f := range figs {
		fmt.Fprintln(p.out, f.Render())
		if p.chart {
			fmt.Fprintln(p.out, f.Chart(72, 18))
		}
		if p.csvDir != "" {
			if err := os.WriteFile(filepath.Join(p.csvDir, f.ID+".csv"), []byte(f.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// generators is every -fig name, in the order -fig all prints them.
var generators = []struct {
	name string
	gen  func(*printer) error
}{
	{"fig2", func(p *printer) error { return p.show(nil, instantad.Fig2()) }},
	{"fig3", func(p *printer) error { return p.show(nil, instantad.Fig3()) }},
	{"fig5", func(p *printer) error { return p.show(nil, instantad.Fig5()) }},
	{"fig7", func(p *printer) error { a, b, c, err := instantad.Fig7(p.opts); return p.show(err, a, b, c) }},
	{"fig8", func(p *printer) error { a, b, c, err := instantad.Fig8(p.opts); return p.show(err, a, b, c) }},
	{"fig9", func(p *printer) error { f, err := instantad.Fig9(p.opts); return p.show(err, f) }},
	{"fig10a", func(p *printer) error { f, err := instantad.Fig10a(p.opts); return p.show(err, f) }},
	{"fig10b", func(p *printer) error { f, err := instantad.Fig10b(p.opts); return p.show(err, f) }},
	{"fig10c", func(p *printer) error { f, err := instantad.Fig10c(p.opts); return p.show(err, f) }},
	{"beta", func(p *printer) error { f, err := instantad.FigBetaSensitivity(p.opts); return p.show(err, f) }},
	{"fm", func(p *printer) error { return p.show(nil, instantad.FigFMAccuracy()) }},
	{"contention", func(p *printer) error { f, err := instantad.FigAdContention(p.opts); return p.show(err, f) }},
	{"popularity", func(p *printer) error { f, err := instantad.FigPopularityDynamics(p.opts); return p.show(err, f) }},
	{"spread", func(p *printer) error { f, err := instantad.FigSpreadCurve(p.opts); return p.show(err, f) }},
	{"capacity", func(p *printer) error {
		sc := p.opts.Base
		sc.SimTime = 900
		base := instantad.CampaignConfig{
			Start: 60, End: 660, R: 400, D: 120,
			RJitter: 40, DJitter: 12, CategorySkew: 0.8,
		}
		f, err := instantad.FigCapacity(sc, base, []float64{1, 2, 4, 8, 12})
		return p.show(err, f)
	}},
	{"rsu", func(p *printer) error {
		// The road file only applies to the road sweep — Validate rejects it
		// on the open-field figures — so set it on a copy of the options.
		o := p.opts
		o.Base.RoadFile = p.road
		f, err := instantad.FigRSUCoverage(o, p.rsu)
		return p.show(err, f)
	}},
	{"async", func(p *printer) error { a, b, err := instantad.FigAsync(p.opts); return p.show(err, a, b) }},
	{"comparator", func(p *printer) error { f, err := instantad.FigComparator(p.opts); return p.show(err, f) }},
	{"sensitivity", func(p *printer) error {
		rep, err := instantad.Sensitivity(p.opts)
		if err == nil {
			fmt.Fprintln(p.out, rep.Render())
		}
		return err
	}},
}

// run is figures on the given arguments and streams. It returns the exit
// code: 2 for a bad invocation, 1 for a figure that failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig        = fs.String("fig", "all", "which figure to regenerate")
		reps       = fs.Int("reps", 3, "seeds per point")
		quick      = fs.Bool("quick", false, "shrink sweeps for a fast pass (one seed unless -reps is set)")
		quiet      = fs.Bool("q", false, "suppress progress lines")
		chart      = fs.Bool("chart", false, "render ASCII charts alongside the tables")
		csvDir     = fs.String("csv", "", "also write each figure as <dir>/<id>.csv")
		roadFile   = fs.String("road", "", "road graph file for the rsu figure (empty = synthetic grid)")
		rsuCounts  = fs.String("rsu", "", "comma-separated RSU counts for the rsu figure (default 0,2,4,8)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		seed       = fs.Uint64("seed", 1, "base random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return code
	}
	var todo []func(*printer) error
	var names []string
	for _, g := range generators {
		names = append(names, g.name)
		if *fig == "all" || strings.EqualFold(*fig, g.name) {
			todo = append(todo, g.gen)
		}
	}
	if len(todo) == 0 {
		return fail(2, fmt.Errorf("unknown -fig %q; want all or one of: %s", *fig, strings.Join(names, " ")))
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *reps < 1 {
		return fail(2, fmt.Errorf("-reps %d: want at least 1", *reps))
	}
	counts, err := cli.Ints(*rsuCounts)
	if err != nil {
		return fail(2, fmt.Errorf("-rsu: %v", err))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "figures: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "figures: %v\n", err)
			}
		}()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(1, err)
		}
	}

	base := instantad.DefaultScenario()
	base.Seed = *seed
	opts := instantad.RunOpts{Reps: *reps, Base: base}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, "  "+format+"\n", args...)
		}
	}
	if *quick {
		base.SimTime = 400
		opts.Base = base
		opts.Sizes = []int{100, 300, 600, 1000}
		opts.Speeds = []float64{5, 15, 30}
		if !set["reps"] {
			opts.Reps = 1
		}
	}
	p := &printer{opts: opts, out: stdout, chart: *chart, csvDir: *csvDir, road: *roadFile, rsu: counts}
	for _, gen := range todo {
		if err := gen(p); err != nil {
			return fail(1, err)
		}
	}
	return 0
}
