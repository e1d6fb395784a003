package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run1 runs mobgen and returns its exit code, stdout and stderr.
func run1(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "move.ns2")
	roads := filepath.Join(dir, "grid.txt")
	short := []string{"-horizon", "200", "-field", "600"}
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-h"}, 0, "", "-model"},
		{[]string{"-bogus"}, 2, "", "flag provided but not defined"},
		{[]string{"-n", "-1"}, 2, "", "-n -1 must be > 0"},
		{[]string{"-n", "0"}, 2, "", "-n 0 must be > 0"},
		{[]string{"-n", "2", "-model", "teleport"}, 2, "", `unknown model "teleport"`},
		{[]string{"-n", "2", "-horizon", "Inf"}, 2, "", "finite"},
		{[]string{"-n", "2", "-speed", "NaN"}, 2, "", "finite"},
		{[]string{"-emit-road", roads, "-block", "0"}, 2, "", "roadnet"},
		{append([]string{"-n", "3"}, short...), 0, "$node_(2) set X_", "wrote 3 random-waypoint trajectories"},
		{append([]string{"-n", "3", "-out", script}, short...), 0, "", "wrote 3"},
		{[]string{"-info", script}, 0, "3 nodes (ids 0..2)", ""},
		{append([]string{"-emit-road", roads}, short...), 0, "", "intersections"},
		{append([]string{"-n", "2", "-model", "road", "-road", roads}, short...), 0, "setdest", ""},
		{append([]string{"-n", "2", "-model", "road"}, short...), 0, "setdest", ""},
		{append([]string{"-n", "2", "-model", "random-walk"}, short...), 0, "setdest", ""},
		{append([]string{"-n", "2", "-model", "manhattan"}, short...), 0, "setdest", ""},
		{[]string{"-info", filepath.Join(dir, "missing.ns2")}, 1, "", "no such file"},
		{[]string{"-info", roads}, 1, "", "mobility"},
		{[]string{"-n", "2", "-model", "road", "-road", filepath.Join(dir, "missing.txt")}, 1, "", "no such file"},
		{append([]string{"-n", "2", "-out", filepath.Join(dir, "no", "x.ns2")}, short...), 1, "", "no such file"},
		{[]string{"-emit-road", filepath.Join(dir, "no", "x.txt")}, 1, "", "no such file"},
	} {
		code, stdout, stderr := run1(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("mobgen %v: exit %d (want %d), stdout %.200q, stderr %q", tc.args, code, tc.code, stdout, stderr)
		}
	}
	// The script -out wrote is the one stdout would have carried.
	_, stdout, _ := run1(append([]string{"-n", "3"}, short...)...)
	if data, err := os.ReadFile(script); err != nil || string(data) != stdout {
		t.Errorf("-out wrote %d bytes (%v), stdout carried %d", len(data), err, len(stdout))
	}
}
