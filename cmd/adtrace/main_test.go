package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
