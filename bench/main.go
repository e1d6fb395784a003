// Command bench is this repository's benchmark: four named workloads driven
// through the public seams of internal/experiment and internal/campaign,
// end-to-end metrics from timed runs with tracing off, and per-layer metrics
// from a separate traced run. BENCHMARK.json at the repository root names
// every workload and metric; README.md here explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fl.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	trace := fl.Int("trace", 0, "1 runs traced and profiled and reports the per-layer metrics; 0 reports the end-to-end metrics")
	runs := fl.Int("runs", 1, "with no -workload: runs per workload, on seeds seed, seed+1, …")
	out := fl.String("out", "", "with no -workload: add the runs to the set in this file, so that two sets can be measured in turns (default: a new set in out/results.json)")
	compare := fl.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fl.Parse(args); err != nil {
		return err
	}
	benchDir, err := findBenchDir()
	if err != nil {
		return err
	}
	spec, err := loadSpec(benchDir)
	if err != nil {
		return err
	}
	if *compare {
		if fl.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), spec, stdout)
	}
	if fl.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	outDir := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "results.json")
			if err := os.Remove(*out); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
		return runAll(spec, benchDir, allOpts{
			out: *out, seed: *seed, seconds: *seconds, trace: *trace, runs: *runs,
		}, stdout)
	}
	if spec.why(*workload) == "" {
		return fmt.Errorf("unknown workload %q; BENCHMARK.json names the workloads", *workload)
	}
	o := runOpts{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		sizing: fullSizing, outDir: outDir,
	}
	res, spans, err := runWorkload(o, spec)
	if err != nil {
		return err
	}
	res.provenance = stamp(benchDir)
	path := filepath.Join(outDir, "result-"+o.workload+".json")
	var doc any = res
	if o.traced {
		path = filepath.Join(outDir, "trace-"+o.workload+".json")
		doc = traceFile{Run: res, Spans: spans}
	}
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	printRun(stdout, res, spec)
	if err := printContractLine(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed: %v", res.Workload, res.Failed, res.Attempted, res.Notes)
	}
	return nil
}

// traceFile is out/trace-<workload>.json: the traced run's per-layer metrics
// and every span it recorded.
type traceFile struct {
	Run   *runResult `json:"run"`
	Spans []span     `json:"spans"`
}

// resultSet is a set of runs: what `bench` invocations without -workload add
// to and what -compare reads. The stamp is the first invocation's; every run
// carries its own.
type resultSet struct {
	provenance
	Runs []*runResult `json:"runs"`
}

func writeJSON(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, doc any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// allOpts is a set of runs as the command line asks for it.
type allOpts struct {
	out     string
	seed    uint64
	seconds float64
	trace   int
	runs    int
}

// runAll runs every workload, each run in its own child process so that no
// workload inherits another's heap, and adds the runs to the set in o.out.
func runAll(spec *benchSpec, benchDir string, o allOpts, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{provenance: stamp(benchDir)}
	if err := readJSON(o.out, &set); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	var failed []string
	for _, w := range spec.Workloads {
		for i := 0; i < o.runs; i++ {
			seed := o.seed + uint64(i)
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
			}
			cmd := exec.Command(exe, args...)
			cmd.Dir = benchDir
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", w.Name, seed, err))
				continue
			}
			res := new(runResult)
			if o.trace == 1 {
				err = readJSON(filepath.Join(benchDir, "out", "trace-"+w.Name+".json"), &traceFile{Run: res})
			} else {
				err = readJSON(filepath.Join(benchDir, "out", "result-"+w.Name+".json"), res)
			}
			if err != nil {
				return err
			}
			set.Runs = append(set.Runs, res)
		}
	}
	if err := writeJSON(o.out, set); err != nil {
		return err
	}
	if len(set.Runs) > len(spec.Workloads) && o.trace == 0 {
		printSpreads(stdout, &set, spec)
	}
	fmt.Fprintf(stdout, "\n%d runs now in %s\n", len(set.Runs), o.out)
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w io.Writer, res *runResult, spec *benchSpec) {
	kind, list := "end-to-end", spec.EndToEnd
	if res.Traced {
		kind, list = "per-layer", spec.PerLayer
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  %s metrics  reps=%d  workers=%d shards=%d  commit=%s  ncpu=%d gomaxprocs=%d %s\n",
		res.Workload, res.Seed, kind, res.Reps, res.Workers, res.Shards, res.Commit, res.NCPU, res.GOMAXPROCS, res.GoVersion)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmedian\tunit\tq1\tq3\tn\tbetter")
	for _, m := range list {
		v := res.Metrics[m.Name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%d\t%s\n", m.Name, v.Value, v.Unit, v.Q1, v.Q3, v.N, m.Better)
	}
	tw.Flush()
	fmt.Fprintf(w, "operations: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// printContractLine prints the one JSON object the driver reads from the
// last line of standard output.
func printContractLine(w io.Writer, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runValues gathers, per workload and metric, each run's reported value.
func runValues(set *resultSet) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range set.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printSpreads prints, for a set of several runs, each end-to-end metric's
// median, quartiles and spread across the runs next to its bound: the
// steadiness the bounds in BENCHMARK.json are fixed against.
func printSpreads(w io.Writer, set *resultSet, spec *benchSpec) {
	values := runValues(set)
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\n== spread across runs (interquartile distance / median)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\truns\tspread\tbound")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			xs, ok := values[wl][m.Name]
			if !ok {
				continue
			}
			sum := summarize(xs, m.Unit)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%.2f%%\t%.0f%%\n",
				wl, m.Name, sum.Value, sum.Q1, sum.Q3, sum.N, 100*spread(xs), 100*m.Bound)
		}
	}
	tw.Flush()
}
