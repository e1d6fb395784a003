package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"instantad/internal/core"
	"instantad/internal/experiment"
)

// TestFlagSurface pins every flag's name, default and bool-ness to the list
// adsim declared by hand before its scenario flags came from Scenario's tags.
func TestFlagSurface(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	c := newCommand(io.Discard)
	var got strings.Builder
	c.fs.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		fmt.Fprintf(&got, "-%s %q bool=%v\n", f.Name, f.DefValue, ok && b.IsBoolFlag())
	})
	if got.String() != string(want) {
		t.Errorf("flag surface changed:\n got\n%s\n want\n%s", got.String(), want)
	}
	if n := len(scenarioFlags()); n != 27 {
		t.Errorf("%d scenario flags, want 27", n)
	}
}

// scenarioFlags lists the flags Scenario's tags declare.
func scenarioFlags() []string {
	var names []string
	t := reflect.TypeOf(experiment.Scenario{})
	for i := 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("flag"); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// run1 runs adsim and returns its exit code, stdout and stderr.
func run1(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// saved runs adsim with -save-config and returns the scenario it wrote.
func saved(t *testing.T, args ...string) experiment.Scenario {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.json")
	if code, _, stderr := run1(append(args, "-save-config", path)...); code != 0 {
		t.Fatalf("adsim %v: exit %d: %s", args, code, stderr)
	}
	sc, err := experiment.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// file saves sc as a scenario file and returns its path.
func file(t *testing.T, sc experiment.Scenario) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.json")
	if err := experiment.Save(path, sc); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSaveConfigCarriesEveryScenarioFlag(t *testing.T) {
	args := []string{
		"-protocol", "Async Gossiping", "-peers", "42", "-field", "900", "-speed", "7",
		"-speed-delta", "2", "-mobility", "road", "-road", "roads.txt", "-rsu", "3",
		"-rsu-range", "150", "-rsu-place", "degree", "-evict", "random", "-range", "110",
		"-R", "400", "-D", "120", "-alpha", "0.4", "-beta", "0.6", "-round", "4",
		"-async-k", "2", "-async-delay", "3", "-async-timeout", "6", "-dis", "90",
		"-cache", "7", "-sim-time", "900", "-loss", "0.1", "-collisions", "-energy", "-seed", "9",
	}
	for _, name := range scenarioFlags() {
		if !strings.Contains(" "+strings.Join(args, " ")+" ", " -"+name+" ") {
			t.Errorf("scenario flag -%s not exercised", name)
		}
	}
	want := experiment.DefaultScenario()
	want.Protocol, want.NumPeers, want.FieldW, want.FieldH = core.AsyncGossip, 42, 900, 900
	want.SpeedMean, want.SpeedDelta, want.Mobility, want.RoadFile = 7, 2, experiment.Road, "roads.txt"
	want.NumRSU, want.RSURange, want.RSUPlacement, want.Eviction = 3, 150, "degree", core.EvictRandomEntry
	want.TxRange, want.R, want.D, want.Alpha, want.Beta, want.RoundTime = 110, 400, 120, 0.4, 0.6, 4
	want.AsyncK, want.AsyncMeanDelay, want.AsyncTimeout, want.DIS = 2, 3, 6, 90
	want.CacheK, want.SimTime, want.LossRate = 7, 900, 0.1
	want.Collisions, want.MeasureEnergy, want.Seed = true, true, 9
	if got := saved(t, args...); got != want {
		t.Errorf("saved\n %+v\nwant\n %+v", got, want)
	}
}

func TestExplicitFlagsOverrideConfig(t *testing.T) {
	base := experiment.DefaultScenario()
	base.NumPeers, base.SpeedMean, base.Category = 77, 3, "grocery"
	base.Eviction, base.MeasureEnergy = core.EvictOldestFirst, true
	base.ChurnOnMean, base.ChurnOffMean = 100, 20
	path := file(t, base)

	want := base
	want.NumPeers = 50
	if got := saved(t, "-config", path, "-peers", "50"); got != want {
		t.Errorf("-config then -peers:\n got  %+v\n want %+v", got, want)
	}
	// -energy ORs into the file's value rather than replacing it.
	if got := saved(t, "-config", path, "-energy=false"); got != base {
		t.Errorf("-energy=false cleared the file's measure_energy: %+v", got)
	}
}

func TestRoadImpliedOnlyWhenGiven(t *testing.T) {
	if got := saved(t, "-road", "roads.txt"); got.Mobility != experiment.Road || got.RoadFile != "roads.txt" {
		t.Errorf("-road alone: mobility %q, road file %q", got.Mobility, got.RoadFile)
	}
	if got := saved(t); got.Mobility != experiment.RandomWaypoint {
		t.Errorf("no flags: mobility %q", got.Mobility)
	}
	manhattan := experiment.DefaultScenario()
	manhattan.Mobility = experiment.Manhattan
	if got := saved(t, "-config", file(t, manhattan), "-peers", "60"); got.Mobility != experiment.Manhattan {
		t.Errorf("config without -road: mobility %q", got.Mobility)
	}
	if code, _, stderr := run1("-road", "roads.txt", "-mobility", "manhattan"); code != 2 || !strings.Contains(stderr, "road file") {
		t.Errorf("-road with -mobility manhattan: exit %d, %q", code, stderr)
	}
}

func TestFieldSetsBothSides(t *testing.T) {
	if got := saved(t, "-field", "800"); got.FieldW != 800 || got.FieldH != 800 {
		t.Errorf("-field 800: %vx%v", got.FieldW, got.FieldH)
	}
	oblong := experiment.DefaultScenario()
	oblong.FieldW, oblong.FieldH = 1000, 2000
	path := file(t, oblong)
	if got := saved(t, "-config", path); got.FieldW != 1000 || got.FieldH != 2000 {
		t.Errorf("config alone: %vx%v", got.FieldW, got.FieldH)
	}
	if got := saved(t, "-config", path, "-field", "800"); got.FieldW != 800 || got.FieldH != 800 {
		t.Errorf("config then -field 800: %vx%v", got.FieldW, got.FieldH)
	}
}

func TestBadInvocationsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-range", "NaN"}, {"-speed", "NaN"}, {"-field", "NaN"}, {"-R", "+Inf"},
	} {
		if code, _, stderr := run1(args...); code != 2 || !strings.Contains(stderr, "not finite") {
			t.Errorf("adsim %v: exit %d, stderr %q", args, code, stderr)
		}
	}
	for _, args := range [][]string{
		{"-protocol", "Telepathy"}, {"-evict", "never"}, {"-mobility", "teleport"},
		{"-peers", "0"}, {"-config", filepath.Join(t.TempDir(), "missing.json")},
	} {
		if code, _, _ := run1(args...); code != 2 {
			t.Errorf("adsim %v: exit %d, want 2", args, code)
		}
	}
	for _, args := range [][]string{{"-reps", "0"}, {"-reps", "-4"}} {
		if code, _, stderr := run1(args...); code != 2 || !strings.Contains(stderr, "-reps") {
			t.Errorf("adsim %v: exit %d, stderr %q", args, code, stderr)
		}
	}
	if code, _, _ := run1("-h"); code != 0 {
		t.Errorf("-h: exit %d", code)
	}
}

func TestRunOutputs(t *testing.T) {
	small := []string{"-peers", "40", "-sim-time", "300", "-D", "100"}
	metrics := filepath.Join(t.TempDir(), "run.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-v", "-energy", "-metrics-out", metrics}, "radio energy:"},
		{[]string{"-json"}, `"delivery_rate_pct"`},
		{[]string{"-reps", "2"}, "(2 reps)"},
		{[]string{"-compare"}, "Relevance Exchange"},
		{[]string{"-map"}, "O issue location"},
	} {
		code, stdout, stderr := run1(append(tc.args, small...)...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("adsim %v: exit %d, stdout lacks %q:\n%s%s", tc.args, code, tc.want, stdout, stderr)
		}
	}
	var snap map[string]any
	if data, err := os.ReadFile(metrics); err != nil || json.Unmarshal(data, &snap) != nil {
		t.Errorf("-metrics-out wrote no JSON snapshot: %v", err)
	}
}
