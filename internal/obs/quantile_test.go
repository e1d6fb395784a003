package obs

import (
	"math"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test_seconds", "t", LinearBuckets(1, 1, 10)) // 1..10
	// 100 observations uniform over (0, 10].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 10)
	}
	if got := h.Quantile(0.5); math.Abs(got-5) > 0.101 {
		t.Fatalf("p50 = %v, want ≈5", got)
	}
	if got := h.Quantile(0.99); math.Abs(got-9.9) > 0.101 {
		t.Fatalf("p99 = %v, want ≈9.9", got)
	}
	if got := h.Quantile(1); math.Abs(got-10) > 0.101 {
		t.Fatalf("p100 = %v, want ≈10", got)
	}
}

func TestHistogramQuantileEmptyAndInf(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_empty_seconds", "t", []float64{1, 2})
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}

	// Observations beyond the last bound clamp to it.
	h.Observe(50)
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("+Inf-bucket p99 = %v, want last finite bound 2", got)
	}
}
