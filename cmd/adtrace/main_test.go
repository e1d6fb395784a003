package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instantad/internal/core"
	"instantad/internal/node"
	"instantad/internal/node/memnet"
	"instantad/internal/trace"
)

// run1 runs adtrace and returns its exit code, stdout and stderr.
func run1(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	garbage := filepath.Join(dir, "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-peers", "40", "-sim-time", "250"}
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-h"}, 0, "", "-summarize"},
		{[]string{"-bogus"}, 2, "", "flag provided but not defined"},
		{nil, 2, "", "need -out <file>"},
		{[]string{"-out", trace, "-protocol", "Telepathy"}, 2, "", "Telepathy"},
		{[]string{"-out", trace, "-peers", "0"}, 2, "", "NumPeers"},
		{append([]string{"-out", trace}, small...), 0, "", "recorded"},
		{append([]string{"-out", "-"}, small...), 0, `"kind":"broadcast"`, "recorded"},
		{[]string{"-summarize", trace}, 0, "broadcasts", ""},
		{[]string{"-analyze", trace}, 0, "ad", ""},
		{[]string{"-summarize", filepath.Join(dir, "missing.jsonl")}, 1, "", "no such file"},
		{[]string{"-analyze", garbage}, 1, "", "adtrace:"},
		{[]string{"-summarize", garbage}, 1, "", "adtrace:"},
		{append([]string{"-out", filepath.Join(dir, "no", "run.jsonl")}, small...), 1, "", "no such file"},
	} {
		code, stdout, stderr := run1(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("adtrace %v: exit %d (want %d), stdout %.200q, stderr %q", tc.args, code, tc.code, stdout, stderr)
		}
	}
}

// TestAnalyzeLiveTrace records a five-node memnet chain into one shared
// recorder, as adnode -events does for one node, and analyzes the file: the
// ad's row must reach the whole chain.
func TestAnalyzeLiveTrace(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := trace.NewRecorder(f, nil)
	cfgs := node.ChainConfigs(5, 200, 250, 40*time.Millisecond)
	for i := range cfgs {
		cfgs[i].ListenAddr, cfgs[i].Transport, cfgs[i].Events = "mem:", sb.Transport(), rec
	}
	c, err := node.NewCluster(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	ad, err := c.Nodes[0].Issue(core.AdSpec{R: 1200, D: 30, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitAll(ad.ID, 5*time.Second) {
		t.Fatal("the chain never fully received the ad")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := run1("-analyze", path)
	if code != 0 {
		t.Fatalf("adtrace -analyze: exit %d, stderr %q", code, stderr)
	}
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == ad.ID.String() {
			if f[2] != "5" {
				t.Errorf("reach %s, want the chain's 5:\n%s", f[2], stdout)
			}
			return
		}
	}
	t.Errorf("no row for %v:\n%s", ad.ID, stdout)
}
