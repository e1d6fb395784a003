// Command adsim runs a single instant-advertising scenario and prints the
// paper's three metrics.
//
// Usage:
//
//	adsim [flags]
//
// Examples:
//
//	adsim -protocol "Optimized Gossiping" -peers 300
//	adsim -protocol Flooding -peers 100 -seed 7 -reps 5
//	adsim -protocol Gossiping -mobility manhattan -speed 15
//
// Every scenario flag comes from a `flag` tag on a field of
// experiment.Scenario, with the field's default and doc line; the parameter
// table in docs/SCENARIOS.md lists them.
package main

import (
	"encoding"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"

	"instantad"
	"instantad/internal/atomicfile"
	"instantad/internal/experiment"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is adsim on the given arguments and streams. It returns the exit code:
// 2 for a bad invocation (flags, config file or the scenario they make), 1
// for a run that failed.
func run(args []string, stdout, stderr io.Writer) int {
	c := newCommand(stderr)
	if err := c.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if c.reps < 1 {
		fmt.Fprintf(stderr, "adsim: -reps %d: want at least 1\n", c.reps)
		return 2
	}
	sc, err := c.scenario()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if c.saveConfig != "" {
		if err := experiment.Save(c.saveConfig, sc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", c.saveConfig)
		return 0
	}
	if err := c.execute(sc, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// command is adsim's flag set: eight flags of its own, and one per Scenario
// field tagged `flag`, registered from the tag.
type command struct {
	fs *flag.FlagSet
	// flagged holds the scenario flags' values, DefaultScenario unless set.
	flagged instantad.Scenario

	cfgFile, saveConfig, metricsOut    string
	reps                               int
	verbose, showMap, compare, jsonOut bool
}

func newCommand(stderr io.Writer) *command {
	c := &command{fs: flag.NewFlagSet("adsim", flag.ContinueOnError), flagged: instantad.DefaultScenario()}
	fs := c.fs
	fs.SetOutput(stderr)
	fs.StringVar(&c.cfgFile, "config", "", "load scenario from a JSON file (explicit flags still override)")
	fs.StringVar(&c.saveConfig, "save-config", "", "write the effective scenario as JSON and exit")
	fs.IntVar(&c.reps, "reps", 1, "replications (consecutive seeds)")
	fs.BoolVar(&c.verbose, "v", false, "print the full per-ad report")
	fs.BoolVar(&c.showMap, "map", false, "print ASCII field snapshots during the ad's life")
	fs.BoolVar(&c.compare, "compare", false, "run every protocol on identical trajectories and tabulate")
	fs.BoolVar(&c.jsonOut, "json", false, "emit the result as JSON")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the run's metrics-registry snapshot as JSON to this file at exit")

	v := reflect.ValueOf(&c.flagged).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		name, usage := tag.Get("flag"), tag.Get("doc")
		if name == "" {
			continue
		}
		switch p := v.Field(i).Addr().Interface().(type) {
		case *float64:
			fs.Float64Var(p, name, *p, usage)
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *uint64:
			fs.Uint64Var(p, name, *p, usage)
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		case *string:
			fs.StringVar(p, name, *p, usage)
		case *instantad.MobilityKind:
			fs.StringVar((*string)(p), name, string(*p), usage)
		case encoding.TextUnmarshaler:
			fs.TextVar(p, name, v.Field(i).Interface().(encoding.TextMarshaler), usage)
		default:
			panic(fmt.Sprintf("adsim: no flag type for %s", name))
		}
	}
	return c
}

// scenario is the config file's scenario, or the default, with the scenario
// flags the user set applied over it, validated.
func (c *command) scenario() (instantad.Scenario, error) {
	sc := instantad.DefaultScenario()
	if c.cfgFile != "" {
		var err error
		if sc, err = experiment.Load(c.cfgFile); err != nil {
			return sc, err
		}
	}
	energy := sc.MeasureEnergy
	set := make(map[string]bool)
	c.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	dst, src := reflect.ValueOf(&sc).Elem(), reflect.ValueOf(c.flagged)
	for i := 0; i < dst.NumField(); i++ {
		if set[dst.Type().Field(i).Tag.Get("flag")] {
			dst.Field(i).Set(src.Field(i))
		}
	}
	// The flags that do more than set their field.
	if set["field"] {
		sc.FieldH = sc.FieldW
	}
	if set["road"] && !set["mobility"] {
		sc.Mobility = instantad.Road
	}
	sc.MeasureEnergy = sc.MeasureEnergy || energy
	return sc, sc.Validate()
}

// execute runs the scenario the way the output flags ask.
func (c *command) execute(sc instantad.Scenario, stdout, stderr io.Writer) error {
	switch {
	case c.showMap:
		return runWithMap(sc, c.metricsOut, stdout)
	case c.compare:
		return runComparison(sc, c.jsonOut, c.metricsOut, stdout)
	case c.reps > 1:
		if c.metricsOut != "" {
			fmt.Fprintln(stderr, "adsim: -metrics-out only covers single runs; ignored with -reps")
		}
		agg, err := instantad.RunReplicated(sc, c.reps)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "protocol:       %v (%d reps)\n", sc.Protocol, c.reps)
		fmt.Fprintf(stdout, "delivery rate:  %s %%\n", agg.DeliveryRate)
		fmt.Fprintf(stdout, "delivery time:  %s s\n", agg.DeliveryTime)
		fmt.Fprintf(stdout, "messages:       %s\n", agg.Messages)
		return nil
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}
	if err := dumpSnapshot(c.metricsOut, res.Snapshot); err != nil {
		return err
	}
	if c.jsonOut {
		return emitJSON(stdout, toJSON(res))
	}
	fmt.Fprintf(stdout, "protocol:       %v\n", sc.Protocol)
	fmt.Fprintf(stdout, "peers:          %d in %.0fx%.0f m (density %.1f /km²)\n",
		sc.NumPeers, sc.FieldW, sc.FieldH, float64(sc.NumPeers)/(sc.FieldW*sc.FieldH/1e6))
	fmt.Fprintf(stdout, "delivery rate:  %.2f%% (%d of %d peers in the area)\n",
		res.DeliveryRate, res.Report.Delivered, res.Report.PassedThrough)
	fmt.Fprintf(stdout, "delivery time:  %.2f s (mean over delivered entrants)\n", res.DeliveryTime)
	fmt.Fprintf(stdout, "messages:       %.0f (%.1f KiB on air)\n", res.Messages, res.Bytes/1024)
	if sc.Mobility == instantad.Road {
		fmt.Fprintf(stdout, "road coverage:  %.1f%% of in-area road length (peak; %d RSUs)\n",
			100*res.Coverage, sc.NumRSU)
	}
	if sc.MeasureEnergy {
		fmt.Fprintf(stdout, "radio energy:   %.2f J network-wide\n", res.EnergyJ)
	}
	if c.verbose {
		fmt.Fprintf(stdout, "duplicates:     %d\nevictions:      %d\nreport:         %v\n",
			res.Duplicates, res.Evictions, res.Report)
	}
	return nil
}

// resultJSON is the machine-readable single-run output.
type resultJSON struct {
	Protocol      string  `json:"protocol"`
	Peers         int     `json:"peers"`
	DeliveryRate  float64 `json:"delivery_rate_pct"`
	DeliveryTime  float64 `json:"delivery_time_s"`
	DeliveryP95   float64 `json:"delivery_time_p95_s"`
	Messages      float64 `json:"messages"`
	Bytes         float64 `json:"bytes"`
	EnergyJ       float64 `json:"energy_j,omitempty"`
	RoadCoverage  float64 `json:"road_coverage_pct,omitempty"`
	LoadGini      float64 `json:"load_gini"`
	PassedThrough int     `json:"passed_through"`
	Delivered     int     `json:"delivered"`
	Seed          uint64  `json:"seed"`
}

func toJSON(res instantad.Result) resultJSON {
	return resultJSON{
		Protocol:      res.Scenario.Protocol.String(),
		Peers:         res.Scenario.NumPeers,
		DeliveryRate:  res.DeliveryRate,
		DeliveryTime:  res.DeliveryTime,
		DeliveryP95:   res.Report.P95,
		Messages:      res.Messages,
		Bytes:         res.Bytes,
		EnergyJ:       res.EnergyJ,
		RoadCoverage:  100 * res.Coverage,
		LoadGini:      res.LoadGini,
		PassedThrough: res.Report.PassedThrough,
		Delivered:     res.Report.Delivered,
		Seed:          res.Scenario.Seed,
	}
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// dumpSnapshot writes a run's metrics-registry snapshot as indented JSON,
// atomically (temp + rename), so a crash never leaves a torn file behind.
// An empty path means the flag was not given.
func dumpSnapshot(path string, snap *instantad.Snapshot) error {
	if path == "" {
		return nil
	}
	return atomicfile.WriteJSON(path, snap)
}

// runComparison runs every protocol (including the related-work comparator)
// on identical trajectories and tabulates the paper's metrics. With
// metricsOut, the last protocol's registry snapshot is written.
func runComparison(sc instantad.Scenario, asJSON bool, metricsOut string, stdout io.Writer) error {
	var rows []resultJSON
	var lastSnap *instantad.Snapshot
	for _, proto := range instantad.AllProtocols() {
		run := sc
		run.Protocol = proto
		res, err := run.Run()
		if err != nil {
			return err
		}
		rows = append(rows, toJSON(res))
		lastSnap = res.Snapshot
	}
	if err := dumpSnapshot(metricsOut, lastSnap); err != nil {
		return err
	}
	if asJSON {
		return emitJSON(stdout, rows)
	}
	fmt.Fprintf(stdout, "%-24s %14s %15s %10s %10s\n",
		"protocol", "delivery rate", "delivery time", "messages", "load gini")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-24s %13.1f%% %14.1fs %10.0f %10.2f\n",
			r.Protocol, r.DeliveryRate, r.DeliveryTime, r.Messages, r.LoadGini)
	}
	return nil
}

// runWithMap executes one run, printing field snapshots at issue, quarter-,
// half- and three-quarter-life.
func runWithMap(sc instantad.Scenario, metricsOut string, stdout io.Writer) error {
	sim, err := sc.Build()
	if err != nil {
		return err
	}
	h := sim.ScheduleAd(sc.IssueTime, instantad.Point{X: sc.FieldW / 2, Y: sc.FieldH / 2},
		instantad.AdSpec{R: sc.R, D: sc.D, Category: sc.Category, Text: "mapped ad"})
	for _, frac := range []float64{0.02, 0.25, 0.5, 0.75} {
		at := sc.IssueTime + frac*sc.D
		sim.Engine.Schedule(at, func() { fmt.Fprintln(stdout, sim.FieldMap(h.Ad, 72)) })
	}
	sim.Engine.Run(sc.SimTime)
	if h.Err != nil {
		return h.Err
	}
	rep, err := sim.Metrics.Report(h.Ad.ID)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, rep)
	snap := sim.Registry.Snapshot()
	return dumpSnapshot(metricsOut, &snap)
}
