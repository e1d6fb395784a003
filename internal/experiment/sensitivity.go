package experiment

import (
	"fmt"
	"math"
	"sort"

	"instantad/internal/core"
)

// SensitivityRow records how one knob perturbation moves the three metrics
// relative to the canonical run.
type SensitivityRow struct {
	Knob          string
	Low, High     string  // the perturbed values, for display
	DeliveryDelta float64 // max |Δ delivery rate| across the two perturbations, points
	TimeDelta     float64 // max |Δ delivery time|, seconds
	MessagesDelta float64 // max |Δ messages| / baseline messages, fraction
}

// SensitivityReport is the tornado analysis: each tuning knob perturbed
// down/up around the canonical setting (one at a time), ranked by message
// impact. It answers the deployment question behind the paper's
// Section IV.C: which knobs must be set carefully, and which barely matter.
type SensitivityReport struct {
	Baseline Result
	Rows     []SensitivityRow // sorted by MessagesDelta, largest first
}

// Sensitivity runs the tornado analysis around o.Base with o.Reps seeds per
// point.
func Sensitivity(o RunOpts) (SensitivityReport, error) {
	o = o.withDefaults()
	base := o.Base
	base.Protocol = core.GossipOpt

	type knob struct {
		name      string
		low, high string
		apply     func(sc *Scenario, up bool)
	}
	knobs := []knob{
		{"alpha", "0.3", "0.7", func(sc *Scenario, up bool) {
			sc.Alpha = map[bool]float64{false: 0.3, true: 0.7}[up]
		}},
		{"beta", "0.3", "0.7", func(sc *Scenario, up bool) {
			sc.Beta = map[bool]float64{false: 0.3, true: 0.7}[up]
		}},
		{"round-time", "2.5s", "10s", func(sc *Scenario, up bool) {
			sc.RoundTime = map[bool]float64{false: 2.5, true: 10}[up]
		}},
		{"DIS", "R/8", "R/2", func(sc *Scenario, up bool) {
			if up {
				sc.DIS = sc.R / 2
			} else {
				sc.DIS = sc.R / 8
			}
		}},
		{"cache-k", "5", "20", func(sc *Scenario, up bool) {
			sc.CacheK = map[bool]int{false: 5, true: 20}[up]
		}},
		{"tx-range", "-20%", "+20%", func(sc *Scenario, up bool) {
			if up {
				sc.TxRange *= 1.2
			} else {
				sc.TxRange *= 0.8
			}
		}},
		{"speed", "-50%", "+50%", func(sc *Scenario, up bool) {
			f := map[bool]float64{false: 0.5, true: 1.5}[up]
			sc.SpeedMean *= f
			sc.SpeedDelta *= f
		}},
	}

	// Point 0 is the canonical run, points 2i+1 and 2i+2 knob i low and high.
	pts := []point{{label: "sensitivity baseline", sc: base}}
	for _, k := range knobs {
		for _, up := range []bool{false, true} {
			sc, value := base, k.low
			if up {
				value = k.high
			}
			k.apply(&sc, up)
			pts = append(pts, point{label: "sensitivity " + k.name + "=" + value, sc: sc})
		}
	}
	runs, err := sweep(o, pts, runScenario, resultLine)
	if err != nil {
		return SensitivityReport{}, err
	}
	baseRes := Result{DeliveryRate: meanRate(runs[0]), DeliveryTime: meanTime(runs[0]), Messages: meanMsgs(runs[0])}
	rep := SensitivityReport{Baseline: baseRes}
	for i, k := range knobs {
		row := SensitivityRow{Knob: k.name, Low: k.low, High: k.high}
		for _, rs := range runs[2*i+1 : 2*i+3] {
			row.DeliveryDelta = math.Max(row.DeliveryDelta, math.Abs(meanRate(rs)-baseRes.DeliveryRate))
			row.TimeDelta = math.Max(row.TimeDelta, math.Abs(meanTime(rs)-baseRes.DeliveryTime))
			if baseRes.Messages > 0 {
				row.MessagesDelta = math.Max(row.MessagesDelta, math.Abs(meanMsgs(rs)-baseRes.Messages)/baseRes.Messages)
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		return rep.Rows[i].MessagesDelta > rep.Rows[j].MessagesDelta
	})
	return rep, nil
}

// Render lays the report out as an aligned table.
func (r SensitivityReport) Render() string {
	out := fmt.Sprintf("sensitivity tornado (baseline: %.1f%% delivery, %.1fs, %.0f messages)\n",
		r.Baseline.DeliveryRate, r.Baseline.DeliveryTime, r.Baseline.Messages)
	out += fmt.Sprintf("%-12s %-10s %14s %12s %12s\n",
		"knob", "range", "Δdelivery(pt)", "Δtime(s)", "Δmsgs(%)")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-12s %-10s %14.2f %12.2f %12.1f\n",
			row.Knob, row.Low+"…"+row.High, row.DeliveryDelta, row.TimeDelta, 100*row.MessagesDelta)
	}
	return out
}
