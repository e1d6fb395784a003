package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec is one metric as BENCHMARK.json names it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The program reads it so that what it emits,
// what -compare judges and what the driver checks cannot drift apart.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func (b *benchSpec) why(workload string) string {
	for _, w := range b.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

func (b *benchSpec) endToEnd(name string) (metricSpec, bool) {
	for _, m := range b.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// findBenchDir walks up from the working directory to this module's go.mod,
// so output never lands relative to wherever the program was started.
func findBenchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module instantad/bench\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: not started inside the bench directory: no go.mod of module instantad/bench at or above the working directory")
		}
		dir = parent
	}
}

func loadSpec(benchDir string) (*benchSpec, error) {
	path := filepath.Join(benchDir, "..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// provenance names the host and the source a result came from.
type provenance struct {
	NCPU       int    `json:"ncpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Timestamp  string `json:"timestamp_utc"`
}

func stamp(benchDir string) provenance {
	return provenance{
		NCPU:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(benchDir),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit returns the checked-out commit, with a -dirty suffix when the
// tree has uncommitted changes, or "unknown" outside a git checkout (the
// driver's checkouts are not repositories).
func gitCommit(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "-C", dir, "status", "--porcelain").Output()
	if err == nil && len(strings.TrimSpace(string(status))) > 0 {
		commit += "-dirty"
	}
	return commit
}
