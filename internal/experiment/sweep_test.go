package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSweepDeterministicAcrossGOMAXPROCS runs one figure on one worker and on
// four: the figures and the progress lines, in point order, must be
// identical. The progress callback appends without a lock, so under -race a
// call from a worker goroutine fails the test.
func TestSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the async figure twice at quick scale")
	}
	type outcome struct {
		time, msgs Figure
		lines      []string
	}
	runAt := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out outcome
		o := quickOpts()
		o.Progress = func(format string, args ...any) {
			out.lines = append(out.lines, fmt.Sprintf(format, args...))
		}
		var err error
		if out.time, out.msgs, err = FigAsync(o); err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, four := runAt(1), runAt(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("GOMAXPROCS 1 and 4 differ:\n%+v\n%+v", one, four)
	}
	if want := len(asyncCurves) * len(quickOpts().Sizes); len(one.lines) != want {
		t.Fatalf("%d progress lines, want one per point (%d):\n%s", len(one.lines), want, strings.Join(one.lines, "\n"))
	}
	if first := one.lines[0]; !strings.HasPrefix(first, asyncCurves[0].label+" x=100 ") {
		t.Errorf("first progress line %q is not the first point", first)
	}
}

// TestSweepValidatesBeforeRunning checks that a bad RSU count fails the
// figure before any point runs.
func TestSweepValidatesBeforeRunning(t *testing.T) {
	o := quickOpts()
	lines := 0
	o.Progress = func(string, ...any) { lines++ }
	if _, err := FigRSUCoverage(o, []int{0, -1}); err == nil || lines != 0 {
		t.Errorf("FigRSUCoverage(0, -1): err %v after %d progress lines, want an error and none", err, lines)
	}
}

// TestSweepReportsFirstFailureInPointOrder makes a later point fail first in
// wall time: the sweep must still return the earliest failing replica in
// point order, after reporting exactly the points before it.
func TestSweepReportsFirstFailureInPointOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	o := RunOpts{Reps: 2}
	var lines []string
	o.Progress = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	var pts []point
	for x := 0; x < 10; x++ {
		pts = append(pts, point{label: fmt.Sprintf("p%d", x), x: float64(x)})
	}
	errLate := errors.New("late failure")
	_, err := sweep(o, pts, func(sc Scenario, x float64) (int, error) {
		switch {
		case x == 3 && sc.Seed == 1:
			time.Sleep(20 * time.Millisecond)
			return 0, errLate
		case x == 5:
			return 0, errors.New("early failure")
		}
		return int(x), nil
	}, func(rs []int) string { return fmt.Sprint(rs) })
	if !errors.Is(err, errLate) || !strings.HasPrefix(err.Error(), "p3: rep 1: ") {
		t.Errorf("err = %v, want p3's rep 1", err)
	}
	var want []string
	for x := 0; x < 3; x++ {
		want = append(want, fmt.Sprintf("%-30s [%d %d]", pts[x].label, x, x))
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("progress lines %q, want %q", lines, want)
	}
}
