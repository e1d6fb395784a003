package main

import (
	"math"
	"sort"

	"instantad/internal/stats"
)

// quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, so a spread computed
// here equals the one the driver computes from the same values. Fewer than
// two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(k int) float64 {
		n := len(sorted)
		j := k * (n + 1) / 4 // 1-based rank, integer part
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// steadiness measure the benchmark's bounds are fixed against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := stats.Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tailPercentiles lists the percentiles a latency report may quote, highest
// last, each with the share of samples beyond it in parts per thousand.
var tailPercentiles = []struct {
	p              float64
	beyondPerMille int
}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// highestPercentile returns the highest of tailPercentiles that still has at
// least ten of n samples beyond it (the choosing-metrics rule), or 50 when
// none has.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, t := range tailPercentiles {
		if n*t.beyondPerMille >= 10*1000 {
			best = t.p
		}
	}
	return best
}

// samples collects every rep's value of each metric of one run.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// metricValue is one reported metric: the median over the run's reps, with
// the quartiles, the sample count and every rep's value.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64, unit string) metricValue {
	mv := metricValue{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) > 0 {
		mv.Value = stats.Median(xs)
		mv.Q1, mv.Q3 = quartiles(xs)
	}
	return mv
}
