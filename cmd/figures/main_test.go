package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// run1 runs figures and returns its exit code, stdout and stderr.
func run1(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestQuickGolden pins every figure's -quick table byte for byte: a change
// to any simulated row, or to a table's layout, fails here. The same run's
// -csv set must name exactly the files committed in results/csv, which the
// full-scale run regenerates.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at -quick scale: ≈ 4 s, ≈ 80 s under -race")
	}
	csvDir := t.TempDir()
	code, stdout, stderr := run1("-quick", "-q", "-csv", csvDir)
	if code != 0 {
		t.Fatalf("figures -quick -q: exit %d: %s", code, stderr)
	}
	if got, want := csvNames(t, csvDir), csvNames(t, filepath.Join("..", "..", "results", "csv")); got != want {
		t.Errorf("figures -csv writes\n  %s\nresults/csv holds\n  %s\n(go run ./cmd/figures -q -csv results/csv regenerates it)", got, want)
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout == string(want) {
		return
	}
	got, wantLines := strings.Split(stdout, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("figures -quick -q differs from %s at line %d:\n got  %q\n want %q\n(go test -run TestQuickGolden -update rewrites it)",
				path, i+1, got[i], wantLines[i])
		}
	}
	t.Fatalf("figures -quick -q has %d lines, %s has %d", len(got), path, len(wantLines))
}

// csvNames lists the .csv files in dir, sorted and space-separated.
func csvNames(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		names[i] = filepath.Base(name)
	}
	return strings.Join(names, " ")
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-h"}, 0, "", "-fig"},
		{[]string{"-bogus"}, 2, "", "flag provided but not defined"},
		{[]string{"-fig", "nope"}, 2, "", "want all or one of: fig2 fig3 fig5 fig7"},
		{[]string{"-fig", "rsu", "-rsu", "1,x"}, 2, "", "-rsu"},
		{[]string{"-fig", "fig2", "-reps", "0"}, 2, "", "-reps"},
		{[]string{"-fig", "fig2", "-quick", "-reps", "-4"}, 2, "", "-reps"},
		{[]string{"-fig", "FIG5", "-chart", "-csv", csvDir, "-cpuprofile", filepath.Join(dir, "cpu"),
			"-memprofile", filepath.Join(dir, "mem")}, 0, "Velocity-constrained probability", ""},
		{[]string{"-fig", "fig2", "-csv", notDir}, 1, "", "not a directory"},
		{[]string{"-fig", "fig2", "-cpuprofile", filepath.Join(notDir, "cpu")}, 1, "", "not a directory"},
		{[]string{"-fig", "rsu", "-quick", "-road", filepath.Join(dir, "missing.txt")}, 1, "", "missing.txt"},
	} {
		code, stdout, stderr := run1(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("figures %v: exit %d (want %d), stdout %q, stderr %q", tc.args, code, tc.code, stdout, stderr)
		}
	}
	csv, err := os.ReadFile(filepath.Join(csvDir, "fig5.csv"))
	if err != nil || !strings.HasPrefix(string(csv), "Distance") {
		t.Errorf("-csv wrote %q, %v", csv, err)
	}
	for _, name := range []string{"cpu", "mem"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("-%sprofile wrote nothing: %v", name, err)
		}
	}
}

// csvOf runs figures with the given arguments and -q -csv, and returns the
// CSV file it writes for figure id.
func csvOf(t *testing.T, id string, args ...string) string {
	t.Helper()
	dir := t.TempDir()
	code, _, stderr := run1(append(args, "-q", "-csv", dir)...)
	if code != 0 {
		t.Fatalf("figures %v: exit %d: %s", args, code, stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestQuickHonoursReps checks that an explicit -reps wins over -quick's one
// seed, also when it names the default of 3.
func TestQuickHonoursReps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the beta sweep at -quick scale with one and three seeds")
	}
	if one, three := csvOf(t, "beta", "-fig", "beta", "-quick"), csvOf(t, "beta", "-fig", "beta", "-quick", "-reps", "3"); one == three {
		t.Errorf("-quick -reps 3 wrote the one-seed table:\n%s", three)
	}
}

// TestCapacityHonoursSeed checks that the capacity figure runs from -seed.
func TestCapacityHonoursSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the capacity sweep twice")
	}
	if a, b := csvOf(t, "capacity", "-fig", "capacity", "-seed", "1"), csvOf(t, "capacity", "-fig", "capacity", "-seed", "2"); a == b {
		t.Errorf("-seed 2 wrote the -seed 1 table:\n%s", b)
	}
}
