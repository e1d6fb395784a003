package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds agree on %d/100 draws", same)
	}
}

func TestSplitStability(t *testing.T) {
	// A split must not depend on how much the parent has been consumed.
	p1 := New(7)
	p2 := New(7)
	for i := 0; i < 50; i++ {
		p2.Uint64()
	}
	c1 := p1.Split("mobility")
	c2 := p2.Split("mobility")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split streams diverged at step %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	p := New(7)
	a := p.Split("a")
	b := p.Split("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("differently labeled splits agree on %d/100 draws", same)
	}
}

func TestSplitIndex(t *testing.T) {
	p := New(9)
	a := p.SplitIndex("node", 0)
	b := p.SplitIndex("node", 1)
	a2 := New(9).SplitIndex("node", 0)
	if a.Uint64() == b.Uint64() {
		t.Error("index 0 and 1 streams start identically")
	}
	a = New(9).SplitIndex("node", 0)
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatalf("same-index splits diverged at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	s := New(5)
	const n = 100000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		f := s.Float64()
		sum += f
		buckets[int(f*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
	for i, b := range buckets {
		if math.Abs(float64(b)-n/10) > n/10*0.1 {
			t.Errorf("bucket %d has %d samples, want ≈%d", i, b, n/10)
		}
	}
}

func TestIntn(t *testing.T) {
	s := New(11)
	seen := make([]bool, 7)
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("value %d never drawn in 1000 tries", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestRange(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		v := s.Range(5, 15)
		if v < 5 || v >= 15 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
	if v := s.Range(3, 3); v != 3 {
		t.Errorf("degenerate range = %v, want 3", v)
	}
	if v := s.Range(5, 2); v != 5 {
		t.Errorf("inverted range = %v, want lo", v)
	}
}

func TestBool(t *testing.T) {
	s := New(17)
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	if s.Bool(-0.5) || !s.Bool(1.5) {
		t.Error("clamping failed")
	}
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			n++
		}
	}
	got := float64(n) / trials
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", got)
	}
}

func TestExp(t *testing.T) {
	s := New(23)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(0.5)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("mean = %v, want ≈2 (1/λ)", mean)
	}
}

func TestPerm(t *testing.T) {
	s := New(29)
	p := s.Perm(10)
	if len(p) != 10 {
		t.Fatalf("len = %d", len(p))
	}
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	if len(s.Perm(0)) != 0 {
		t.Error("Perm(0) not empty")
	}
}

func TestZipf(t *testing.T) {
	s := New(31)
	const n = 50000
	counts := make([]int, 5)
	for i := 0; i < n; i++ {
		counts[s.Zipf(5, 1.0)]++
	}
	for k := 0; k < 4; k++ {
		if counts[k] <= counts[k+1] {
			t.Errorf("Zipf counts not decreasing: %v", counts)
			break
		}
	}
	// Skew 0 is uniform.
	counts0 := make([]int, 5)
	for i := 0; i < n; i++ {
		counts0[s.Zipf(5, 0)]++
	}
	for k, c := range counts0 {
		if math.Abs(float64(c)-n/5) > n/5*0.1 {
			t.Errorf("uniform Zipf bucket %d = %d, want ≈%d", k, c, n/5)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}

func TestSplitInheritsParentSeed(t *testing.T) {
	// Children of parents with different seeds must differ — this was a
	// real bug: splits once depended only on the label.
	a := New(1).Split("mobility")
	b := New(2).Split("mobility")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("children of different seeds agree on %d/100 draws", same)
	}
	ai := New(1).SplitIndex("node", 3)
	bi := New(2).SplitIndex("node", 3)
	same = 0
	for i := 0; i < 100; i++ {
		if ai.Uint64() == bi.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("indexed children of different seeds agree on %d/100 draws", same)
	}
}

func TestNestedSplitPathSensitivity(t *testing.T) {
	// grandchild identity depends on the whole split path.
	a := New(1).Split("x").Split("leaf")
	b := New(1).Split("y").Split("leaf")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different paths agree on %d/100 draws", same)
	}
}
