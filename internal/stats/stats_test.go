package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d Mean=%v", s.N, s.Mean)
	}
	// Sample stddev of this set is ≈ 2.138.
	if math.Abs(s.StdDev-2.13809) > 1e-4 {
		t.Errorf("StdDev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.StdDev != 0 {
		t.Errorf("single summary %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got != "2.000 ± 1.000 (n=3)" {
		t.Errorf("String = %q", got)
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []int32) bool {
		if len(raw) == 0 {
			return Mean(nil) == 0
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {62.5, 35},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Median(xs) != 30 {
		t.Errorf("Median = %v", Median(xs))
	}
	// Input must not be mutated (Percentile sorts a copy).
	if xs[0] != 10 || xs[4] != 50 {
		t.Error("input mutated")
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, p1Raw, p2Raw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p1 := float64(p1Raw) / 255 * 100
		p2 := float64(p2Raw) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGini(t *testing.T) {
	if g := Gini(nil); g != 0 {
		t.Errorf("empty Gini = %v", g)
	}
	if g := Gini([]float64{0, 0, 0}); g != 0 {
		t.Errorf("all-zero Gini = %v", g)
	}
	// Perfect equality.
	if g := Gini([]float64{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Errorf("equal Gini = %v, want 0", g)
	}
	// One element carries everything: (n−1)/n for n elements.
	if g := Gini([]float64{0, 0, 0, 10}); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("concentrated Gini = %v, want 0.75", g)
	}
	// Known value: {1,2,3,4} → Gini = 0.25.
	if g := Gini([]float64{1, 2, 3, 4}); math.Abs(g-0.25) > 1e-12 {
		t.Errorf("Gini({1..4}) = %v, want 0.25", g)
	}
	// Order-insensitive.
	if Gini([]float64{4, 1, 3, 2}) != Gini([]float64{1, 2, 3, 4}) {
		t.Error("Gini depends on input order")
	}
}

func TestGiniPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative input did not panic")
		}
	}()
	Gini([]float64{1, -1})
}

func TestGiniBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		g := Gini(xs)
		return g >= -1e-12 && g < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
