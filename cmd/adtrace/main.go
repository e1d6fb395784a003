// Command adtrace records a scenario's protocol events as JSON Lines, or
// summarizes an existing trace file.
//
// Usage:
//
//	adtrace -out run.jsonl [-protocol ... -peers ...]   # record
//	adtrace -summarize run.jsonl                        # inspect
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"instantad"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is adtrace on the given arguments and streams. It returns the exit
// code: 2 for a bad invocation (flags or the scenario they make), 1 for a
// trace that could not be read, recorded or written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "trace output file ('-' for stdout)")
		summarize = fs.String("summarize", "", "summarize an existing trace file instead of recording")
		analyze   = fs.String("analyze", "", "per-ad dissemination analysis of an existing trace file")
		protocol  = fs.String("protocol", "Optimized Gossiping", "protocol to run")
		peers     = fs.Int("peers", 300, "number of peers")
		simTime   = fs.Float64("sim-time", 400, "simulation length, seconds")
		seed      = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "adtrace: %v\n", err)
		return code
	}

	if *summarize != "" || *analyze != "" {
		if err := inspect(*summarize, *analyze, stdout); err != nil {
			return fail(1, err)
		}
		return 0
	}
	if *out == "" {
		return fail(2, errors.New("need -out <file> to record or -summarize <file> to inspect"))
	}
	proto, err := instantad.ParseProtocol(*protocol)
	if err != nil {
		return fail(2, err)
	}
	sc := instantad.DefaultScenario()
	sc.Protocol = proto
	sc.NumPeers = *peers
	sc.SimTime = *simTime
	sc.Seed = *seed
	if err := sc.Validate(); err != nil {
		return fail(2, err)
	}
	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		w = f
	}
	if err := record(sc, w, stderr); err != nil {
		return fail(1, err)
	}
	return 0
}

// record runs the scenario's single ad with a trace recorder on w.
func record(sc instantad.Scenario, w, stderr io.Writer) error {
	sim, err := sc.Build()
	if err != nil {
		return err
	}
	rec := sim.Trace(w)
	h := sim.ScheduleAd(sc.IssueTime, instantad.Point{X: sc.FieldW / 2, Y: sc.FieldH / 2},
		instantad.AdSpec{R: sc.R, D: sc.D, Category: sc.Category, Text: "traced ad"})
	sim.Engine.Run(sc.SimTime)
	if h.Err != nil {
		return h.Err
	}
	if err := rec.Flush(); err != nil {
		return err
	}
	rep, err := sim.Metrics.Report(h.Ad.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "recorded %d events; %v\n", rec.Count(), rep)
	return nil
}

// inspect prints the summary of the trace file at summarize or, when that
// is empty, the per-ad analysis of the one at analyze.
func inspect(summarize, analyze string, stdout io.Writer) error {
	path := summarize
	if path == "" {
		path = analyze
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := instantad.ReadTrace(f)
	if err != nil {
		return err
	}
	if summarize == "" {
		a, err := instantad.AnalyzeTrace(events)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, a.Render())
		return nil
	}
	sum, err := instantad.SummarizeTrace(events)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, sum)
	kinds := make([]string, 0, len(sum.ByKind))
	for k := range sum.ByKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(stdout, "  %-10s %d\n", k, sum.ByKind[instantad.TraceKind(k)])
	}
	for _, ad := range sum.Ads {
		fmt.Fprintf(stdout, "  %s: %d broadcasts\n", ad, sum.MsgsPerAd[ad])
	}
	return nil
}
