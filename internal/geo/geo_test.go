package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 0}, Point{2, 0}, 4},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); !almostEq(got, c.want*c.want, 1e-9) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, -10}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp 0 = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp 1 = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, -5}) {
		t.Errorf("Lerp 0.5 = %v, want (5,-5)", got)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if v.Len() != 5 {
		t.Errorf("Len = %v, want 5", v.Len())
	}
	if v.Len2() != 25 {
		t.Errorf("Len2 = %v, want 25", v.Len2())
	}
	if d := v.Dot(Vec{-4, 3}); d != 0 {
		t.Errorf("Dot perpendicular = %v, want 0", d)
	}
	if s := v.Scale(2); s != (Vec{6, 8}) {
		t.Errorf("Scale = %v", s)
	}
	if a := v.Add(Vec{1, 1}); a != (Vec{4, 5}) {
		t.Errorf("Add = %v", a)
	}
}

func TestAngleBetween(t *testing.T) {
	cases := []struct {
		v, w Vec
		want float64
	}{
		{Vec{1, 0}, Vec{1, 0}, 0},
		{Vec{1, 0}, Vec{0, 1}, math.Pi / 2},
		{Vec{1, 0}, Vec{-1, 0}, math.Pi},
		{Vec{0, 0}, Vec{1, 0}, math.Pi / 2}, // zero vector → neutral
	}
	for _, c := range cases {
		if got := AngleBetween(c.v, c.w); !almostEq(got, c.want, 1e-12) {
			t.Errorf("AngleBetween(%v,%v) = %v, want %v", c.v, c.w, got, c.want)
		}
	}
}

func TestAngleBetweenRangeProperty(t *testing.T) {
	f := func(vx, vy, wx, wy int16) bool {
		a := AngleBetween(Vec{float64(vx), float64(vy)}, Vec{float64(wx), float64(wy)})
		return a >= 0 && a <= math.Pi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(100, 50)
	if r.W() != 100 || r.H() != 50 {
		t.Fatalf("W/H = %v/%v", r.W(), r.H())
	}
	if got := r.Clamp(Point{-5, 60}); got != (Point{0, 50}) {
		t.Errorf("Clamp = %v, want (0,50)", got)
	}
	if got := r.Center(); got != (Point{50, 25}) {
		t.Errorf("Center = %v", got)
	}
}

func TestCircleContains(t *testing.T) {
	c := Circle{Point{0, 0}, 10}
	if !c.Contains(Point{10, 0}) {
		t.Error("boundary should be contained")
	}
	if c.Contains(Point{10.001, 0}) {
		t.Error("outside should not be contained")
	}
}

func TestLensAreaKnownValues(t *testing.T) {
	// Coincident equal circles: lens = full disk.
	if got := LensArea(5, 5, 0); !almostEq(got, math.Pi*25, 1e-9) {
		t.Errorf("coincident: %v, want %v", got, math.Pi*25)
	}
	// Disjoint.
	if got := LensArea(5, 5, 10); got != 0 {
		t.Errorf("tangent/disjoint: %v, want 0", got)
	}
	if got := LensArea(5, 5, 11); got != 0 {
		t.Errorf("disjoint: %v, want 0", got)
	}
	// Contained: small circle entirely inside big one.
	if got := LensArea(10, 2, 1); !almostEq(got, math.Pi*4, 1e-9) {
		t.Errorf("contained: %v, want %v", got, math.Pi*4)
	}
	// Equal circles at separation r: area = r²(2π/3 − √3/2).
	r := 7.0
	want := r * r * (2*math.Pi/3 - math.Sqrt(3)/2)
	if got := LensArea(r, r, r); !almostEq(got, want, 1e-9) {
		t.Errorf("separation r: %v, want %v", got, want)
	}
}

func TestOverlapFraction(t *testing.T) {
	if got := OverlapFraction(10, 0); !almostEq(got, 1, 1e-12) {
		t.Errorf("d=0: %v, want 1", got)
	}
	if got := OverlapFraction(10, 20); got != 0 {
		t.Errorf("d=2r: %v, want 0", got)
	}
	// The paper's minimum for in-range peers: 2/3 − √3/(2π) ≈ 0.391.
	got, want := OverlapFraction(250, 250), 2.0/3-math.Sqrt(3)/(2*math.Pi)
	if !almostEq(got, want, 1e-9) {
		t.Errorf("d=r: %v, want %v", got, want)
	}
	if got := OverlapFraction(0, 1); got != 0 {
		t.Errorf("zero radius: %v, want 0", got)
	}
}

func TestLensAreaMonotoneInDistanceProperty(t *testing.T) {
	// Overlap area must not increase as the separation grows.
	f := func(seedR uint8, d1f, d2f uint16) bool {
		r := 1 + float64(seedR)
		d1 := float64(d1f) / float64(math.MaxUint16) * 3 * r
		d2 := float64(d2f) / float64(math.MaxUint16) * 3 * r
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return LensArea(r, r, d1) >= LensArea(r, r, d2)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLensAreaBoundsProperty(t *testing.T) {
	// 0 ≤ lens ≤ min disk area.
	f := func(r1f, r2f, df uint16) bool {
		r1 := float64(r1f)/1000 + 0.1
		r2 := float64(r2f)/1000 + 0.1
		d := float64(df) / 500
		a := LensArea(r1, r2, d)
		rm := math.Min(r1, r2)
		return a >= 0 && a <= math.Pi*rm*rm+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSegmentCircleHit(t *testing.T) {
	c := Circle{Point{0, 0}, 5}
	// Starts inside.
	if f, hit := SegmentCircleHit(Point{1, 1}, Point{100, 100}, c); !hit || f != 0 {
		t.Errorf("inside start: f=%v hit=%v", f, hit)
	}
	// Crosses: from (-10,0) to (10,0) enters at x=-5 → f=0.25.
	if f, hit := SegmentCircleHit(Point{-10, 0}, Point{10, 0}, c); !hit || !almostEq(f, 0.25, 1e-9) {
		t.Errorf("crossing: f=%v hit=%v, want 0.25", f, hit)
	}
	// Misses entirely.
	if _, hit := SegmentCircleHit(Point{-10, 6}, Point{10, 6}, c); hit {
		t.Error("parallel miss should not hit")
	}
	// Segment too short to reach.
	if _, hit := SegmentCircleHit(Point{-10, 0}, Point{-6, 0}, c); hit {
		t.Error("short segment should not hit")
	}
	// Degenerate zero-length segment outside.
	if _, hit := SegmentCircleHit(Point{9, 9}, Point{9, 9}, c); hit {
		t.Error("degenerate outside segment should not hit")
	}
	// Tangent grazing counts as a hit at the tangent point.
	if f, hit := SegmentCircleHit(Point{-10, 5}, Point{10, 5}, c); !hit || !almostEq(f, 0.5, 1e-6) {
		t.Errorf("tangent: f=%v hit=%v", f, hit)
	}
}

func TestSegmentCircleHitConsistencyProperty(t *testing.T) {
	// If the segment midpoint sampled at the returned f is (numerically) on or
	// inside the circle, the hit parameter is consistent.
	f := func(ax, ay, bx, by int16, rr uint8) bool {
		a := Point{float64(ax) / 10, float64(ay) / 10}
		b := Point{float64(bx) / 10, float64(by) / 10}
		c := Circle{Point{0, 0}, float64(rr)/10 + 0.5}
		fr, hit := SegmentCircleHit(a, b, c)
		if !hit {
			return true
		}
		p := a.Lerp(b, fr)
		return p.Dist(c.C) <= c.R+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
