package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"instantad/internal/core"
)

// point is one swept setting: the scenario its replicas start from, the x it
// plots at, and the label its progress line and errors carry.
type point struct {
	label string
	sc    Scenario
	x     float64
}

// sweep runs every point o.Reps times, with seeds sc.Seed, sc.Seed+1, …, on
// one pool of GOMAXPROCS goroutines, and returns runs[p]: point p's results in
// seed order. run executes one replica.
//
// Progress, when set, gets one line per point in point order, label and then
// line(runs[p]), on the calling goroutine, as soon as that point and every
// earlier point have finished. The error is the first failing replica in
// point order, then seed order: the one a sequential loop would return.
// Replicas after it are not started.
func sweep[R any](o RunOpts, pts []point, run func(sc Scenario, x float64) (R, error), line func([]R) string) ([][]R, error) {
	reps := o.Reps
	if reps < 1 {
		return nil, fmt.Errorf("experiment: reps %d < 1", reps)
	}
	total := len(pts) * reps
	flat, errs := make([]R, total), make([]error, total)
	// Replica j is point j/reps at seed offset j%reps. Workers claim replicas
	// in index order, so every replica below the lowest failing one has
	// started by the time that failure lowers firstFail, and runs to the end.
	var next, firstFail atomic.Int64
	firstFail.Store(int64(total))
	done := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), total) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < total; j = int(next.Add(1) - 1) {
				if int64(j) < firstFail.Load() {
					sc := pts[j/reps].sc
					sc.Seed += uint64(j % reps)
					if flat[j], errs[j] = run(sc, pts[j/reps].x); errs[j] != nil {
						// Lower firstFail to j unless a lower replica failed.
						for f := firstFail.Load(); int64(j) < f && !firstFail.CompareAndSwap(f, int64(j)); f = firstFail.Load() {
						}
					}
				}
				done <- j
			}
		}()
	}

	runs := make([][]R, len(pts))
	finished := make([]int, len(pts)) // replicas of each point done
	shown := 0                        // points reported so far
	for range total {
		finished[<-done/reps]++
		for ; shown < len(pts) && finished[shown] == reps && int64((shown+1)*reps) <= firstFail.Load(); shown++ {
			runs[shown] = flat[shown*reps : (shown+1)*reps]
			if o.Progress != nil {
				o.Progress("%-30s %s", pts[shown].label, line(runs[shown]))
			}
		}
	}
	wg.Wait()
	if j := int(firstFail.Load()); j < total {
		return nil, fmt.Errorf("%s: rep %d: %w", pts[j/reps].label, j%reps, errs[j])
	}
	return runs, nil
}

// curve is one line of a swept figure: its label and what it sets on the base
// scenario at each x.
type curve struct {
	label string
	set   func(sc *Scenario, x float64)
}

// sweepCurves runs curves × xs, point c·len(xs)+i being curve c at xs[i], and
// returns runs[c][i], curve c's results at xs[i] in seed order.
func sweepCurves[R any](o RunOpts, curves []curve, xs []float64, run func(Scenario, float64) (R, error), line func([]R) string) ([][][]R, error) {
	var pts []point
	for _, c := range curves {
		for _, x := range xs {
			sc := o.Base
			c.set(&sc, x)
			pts = append(pts, point{fmt.Sprintf("%s x=%v", c.label, x), sc, x})
		}
	}
	runs, err := sweep(o, pts, run, line)
	if err != nil {
		return nil, err
	}
	byCurve := make([][][]R, len(curves))
	for c := range byCurve {
		byCurve[c] = runs[c*len(xs) : (c+1)*len(xs)]
	}
	return byCurve, nil
}

// sweepGrid is sweepCurves over single-ad runs (Scenario.Run).
func sweepGrid(o RunOpts, curves []curve, xs []float64) ([][][]Result, error) {
	return sweepCurves(o, curves, xs, runScenario, resultLine)
}

func runScenario(sc Scenario, _ float64) (Result, error) { return sc.Run() }

// resultLine is a single-ad point's progress line: its three seed means.
func resultLine(rs []Result) string {
	return fmt.Sprintf("delivery=%6.2f%% time=%6.2fs msgs=%8.0f", meanRate(rs), meanTime(rs), meanMsgs(rs))
}

// protocolCurves is one curve per protocol, each setting x with setX.
func protocolCurves(protos []core.Protocol, setX func(sc *Scenario, x float64)) []curve {
	curves := make([]curve, len(protos))
	for i, proto := range protos {
		curves[i] = curve{proto.String(), func(sc *Scenario, x float64) {
			sc.Protocol = proto
			setX(sc, x)
		}}
	}
	return curves
}

// sum adds one metric over a point's replicas in seed order.
func sum[R any](rs []R, metric func(R) float64) float64 {
	var s float64
	for _, r := range rs {
		s += metric(r)
	}
	return s
}

// mean is a metric's seed mean, summed in seed order and then divided, as
// stats.Summarize does.
func mean[R any](metric func(R) float64) func([]R) float64 {
	return func(rs []R) float64 { return sum(rs, metric) / float64(len(rs)) }
}

var (
	meanRate = mean(func(r Result) float64 { return r.DeliveryRate })
	meanTime = mean(func(r Result) float64 { return r.DeliveryTime })
	meanMsgs = mean(func(r Result) float64 { return r.Messages })
)

// plot is the series y(runs[i]) at xs[i].
func plot[R any](label string, xs []float64, runs [][]R, y func([]R) float64) Series {
	s := Series{Label: label, X: append([]float64(nil), xs...), Y: make([]float64, len(runs))}
	for i, rs := range runs {
		s.Y[i] = y(rs)
	}
	return s
}
