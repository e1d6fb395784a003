package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// run1 runs campaign and returns its exit code, stdout and stderr.
func run1(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	small := []string{"-peers", "60", "-window", "120", "-D", "60"}
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-h"}, 0, "", "-rates"},
		{[]string{"-bogus"}, 2, "", "flag provided but not defined"},
		{[]string{"-rates", "Inf"}, 2, "", "not finite"},
		{[]string{"-rates", "1,NaN"}, 2, "", "not finite"},
		{[]string{"-rates", "1,x"}, 2, "", "bad value"},
		{[]string{"-rates", "0"}, 2, "", "must be > 0"},
		{[]string{"-skew", "NaN"}, 2, "", "category skew"},
		{[]string{"-D", "NaN"}, 2, "", "not finite"},
		{[]string{"-peers", "0"}, 2, "", "NumPeers"},
		{append([]string{"-rates", "4,8", "-per-category", "-metrics-out", metrics}, small...), 0,
			"per-category at 8.0 ads/min", ""},
		{append([]string{"-rates", "4,4"}, small...), 0, "4.0", ""},
		{append([]string{"-rates", "0.01"}, small...), 1, "", "no ads"},
		{append([]string{"-rates", "4", "-metrics-out", filepath.Join(dir, "no", "m.json")}, small...), 1, "", "no such file"},
	} {
		start := time.Now()
		code, stdout, stderr := run1(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("campaign %v: exit %d (want %d), stdout %q, stderr %q", tc.args, code, tc.code, stdout, stderr)
		}
		if tc.code == 2 && time.Since(start) > time.Second {
			t.Errorf("campaign %v: a bad invocation took %v", tc.args, time.Since(start))
		}
	}
	var snap map[string]any
	if data, err := os.ReadFile(metrics); err != nil || json.Unmarshal(data, &snap) != nil {
		t.Errorf("-metrics-out wrote no JSON snapshot: %v", err)
	}
}
