package fm

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// equal reports whether two sketches have identical shape, seed and bits.
func (s *Sketch) equal(other *Sketch) bool {
	return other != nil && s.f == other.f && s.l == other.l && s.seed == other.seed && slices.Equal(s.bm, other.bm)
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ f, l int }{{0, 32}, {-1, 32}, {8, 0}, {8, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.f, c.l)
				}
			}()
			New(c.f, c.l, 1)
		}()
	}
	s := New(8, 32, 7)
	if s.f != 8 || s.l != 32 || s.seed != 7 {
		t.Errorf("shape: F=%d L=%d seed=%d", s.f, s.l, s.seed)
	}
}

func TestEmptyEstimatesZero(t *testing.T) {
	s := New(8, 32, 1)
	if e := s.Estimate(); e != 0 {
		t.Errorf("empty estimate = %v, want 0", e)
	}
	if r := s.Rank(); r != 0 {
		t.Errorf("empty rank = %d, want 0", r)
	}
}

func TestDuplicateInsensitive(t *testing.T) {
	s := New(8, 32, 1)
	if !s.Add(42) {
		t.Error("first Add reported no change")
	}
	snap := s.Clone()
	for i := 0; i < 100; i++ {
		if s.Add(42) {
			t.Fatal("duplicate Add reported a change")
		}
	}
	if !s.equal(snap) {
		t.Error("duplicates modified the sketch")
	}
}

func TestDuplicateInsensitiveProperty(t *testing.T) {
	f := func(ids []uint64) bool {
		a := New(4, 32, 9)
		b := New(4, 32, 9)
		for _, id := range ids {
			a.Add(id)
		}
		// Add every id three times in a different order.
		for r := 0; r < 3; r++ {
			for i := len(ids) - 1; i >= 0; i-- {
				b.Add(ids[i])
			}
		}
		return a.equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeIsUnionProperty(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a := New(4, 32, 5)
		b := New(4, 32, 5)
		u := New(4, 32, 5)
		for _, x := range xs {
			a.Add(x)
			u.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			u.Add(y)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		return a.equal(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := New(4, 32, 5)
	if err := a.Merge(New(8, 32, 5)); err == nil {
		t.Error("merge with different F succeeded")
	}
	if err := a.Merge(New(4, 16, 5)); err == nil {
		t.Error("merge with different L succeeded")
	}
	if err := a.Merge(New(4, 32, 6)); err == nil {
		t.Error("merge with different seed succeeded")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("merge with nil succeeded")
	}
}

// TestCoversIffMergeChangesNothingProperty pins Covers to its meaning:
// a.Covers(b) exactly when OR-ing b into a copy of a sets no new bit. Random
// element sets make both outcomes common: ys drawn from xs is covered, an
// unrelated ys almost never is.
func TestCoversIffMergeChangesNothingProperty(t *testing.T) {
	covered, uncovered := 0, 0
	f := func(xs, ys []uint64, subset bool) bool {
		a, b := New(4, 32, 5), New(4, 32, 5)
		for _, x := range xs {
			a.Add(x)
		}
		for i, y := range ys {
			if subset && len(xs) > 0 {
				y = xs[i%len(xs)]
			}
			b.Add(y)
		}
		merged := a.Clone()
		if err := merged.Merge(b); err != nil {
			return false
		}
		unchanged := merged.equal(a)
		if unchanged {
			covered++
		} else {
			uncovered++
		}
		return a.Covers(b) == unchanged && a.Covers(a) && merged.Covers(a) && merged.Covers(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if covered == 0 || uncovered == 0 {
		t.Errorf("one-sided sample: %d covered, %d not", covered, uncovered)
	}
}

// TestCoversIncompatible: a sketch Merge would reject is never covered, even
// when it is empty.
func TestCoversIncompatible(t *testing.T) {
	a := New(4, 32, 5)
	a.Add(1)
	for name, other := range map[string]*Sketch{
		"different F": New(8, 32, 5), "different L": New(4, 16, 5),
		"different seed": New(4, 32, 6), "nil": nil,
	} {
		if a.Covers(other) {
			t.Errorf("Covers(%s) = true", name)
		}
	}
	if !a.Covers(New(4, 32, 5)) {
		t.Error("an empty compatible sketch is not covered")
	}
}

func TestMergeCommutativeProperty(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a1 := New(4, 32, 5)
		b1 := New(4, 32, 5)
		a2 := New(4, 32, 5)
		b2 := New(4, 32, 5)
		for _, x := range xs {
			a1.Add(x)
			a2.Add(x)
		}
		for _, y := range ys {
			b1.Add(y)
			b2.Add(y)
		}
		_ = a1.Merge(b1) // a ∪ b
		_ = b2.Merge(a2) // b ∪ a
		return a1.equal(b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// With F=64 the standard error is ≈ 0.78/√F = 9.75 %; allow 3σ.
	const f = 64
	bound := 3 * 0.78 / math.Sqrt(f)
	for _, n := range []int{100, 1000, 10000} {
		s := New(f, 64, 12345)
		for i := 0; i < n; i++ {
			s.Add(uint64(i) * 2654435761)
		}
		est := s.Estimate()
		rel := math.Abs(est-float64(n)) / float64(n)
		if rel > bound {
			t.Errorf("n=%d: estimate %.1f, relative error %.3f > %.3f", n, est, rel, bound)
		}
	}
}

func TestEstimateMonotoneGrowth(t *testing.T) {
	// Adding elements never decreases the estimate.
	s := New(8, 32, 77)
	prev := s.Estimate()
	for i := 0; i < 5000; i++ {
		s.Add(uint64(i))
		if e := s.Estimate(); e < prev {
			t.Fatalf("estimate decreased from %v to %v after add %d", prev, e, i)
		} else {
			prev = e
		}
	}
}

func TestMinZero(t *testing.T) {
	s := New(1, 8, 0)
	if m := s.MinZero(0); m != 0 {
		t.Errorf("empty MinZero = %d, want 0", m)
	}
	s.bm[0] = 0b0111 // bits 0..2 set
	if m := s.MinZero(0); m != 3 {
		t.Errorf("MinZero = %d, want 3", m)
	}
	s.bm[0] = 0xFF // all 8 bits set
	if m := s.MinZero(0); m != 8 {
		t.Errorf("saturated MinZero = %d, want L=8", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(4, 32, 1)
	s.Add(1)
	c := s.Clone()
	c.Add(999999)
	if s.equal(c) && s.Estimate() == c.Estimate() {
		// They may still be equal if 999999 hashed onto set bits; force a check
		// on the backing arrays being distinct.
		c.bm[0] ^= 1 << 31
		if s.bm[0] == c.bm[0] {
			t.Error("clone shares backing storage")
		}
	}
}

func TestMarshalRoundtripProperty(t *testing.T) {
	f := func(ids []uint64, seed uint64) bool {
		s := New(6, 24, seed)
		for _, id := range ids {
			s.Add(id)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		if len(data) != s.WireSize() {
			return false
		}
		var d Sketch
		if err := d.UnmarshalBinary(data); err != nil {
			return false
		}
		return d.equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var s Sketch
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil data accepted")
	}
	if err := s.UnmarshalBinary([]byte{0, 32, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("f=0 accepted")
	}
	if err := s.UnmarshalBinary([]byte{4, 99, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("l=99 accepted")
	}
	good, _ := New(4, 32, 1).MarshalBinary()
	if err := s.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestWireSizeMatchesPaperScale(t *testing.T) {
	// The paper suggests a small fixed overhead (e.g. 8 sketches × 32 bits =
	// 32 bytes of bitmap). Check our framing stays close to that.
	s := New(8, 32, 0)
	if s.WireSize() != 2+8+8*4 {
		t.Errorf("WireSize = %d, want 42", s.WireSize())
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(8, 32, 1)
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := New(8, 32, 1)
	for i := 0; i < 10000; i++ {
		s.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Estimate()
	}
}
