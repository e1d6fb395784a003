// Package geo provides the 2-D geometric primitives used throughout the
// simulator: points, vectors, distance computations, circle–circle lens
// overlap (needed by the Optimized Gossiping-2 postponement rule), and
// segment–circle intersection (needed to detect when a moving peer enters an
// advertising area between metric samples).
//
// All coordinates are in meters and all angles in radians.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Vec is a displacement or velocity in the plane.
type Vec struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// String implements fmt.Stringer.
func (v Vec) String() string { return fmt.Sprintf("<%.2f, %.2f>", v.X, v.Y) }

// Add returns p displaced by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids the
// square root on hot paths such as neighbor filtering.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates from p to q; f=0 yields p and f=1 yields q.
func (p Point) Lerp(q Point, f float64) Point {
	return Point{p.X + (q.X-p.X)*f, p.Y + (q.Y-p.Y)*f}
}

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Add returns the vector sum v+w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared length of v.
func (v Vec) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// AngleBetween returns the angle in [0, π] between v and w. If either vector
// is zero the angle is undefined and AngleBetween returns π/2, a neutral
// value for the postponement formula (cos θ = 0).
func AngleBetween(v, w Vec) float64 {
	lv, lw := v.Len(), w.Len()
	if lv == 0 || lw == 0 {
		return math.Pi / 2
	}
	c := v.Dot(w) / (lv * lw)
	// Clamp against floating-point drift before acos.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Rect is an axis-aligned rectangle, used for simulation field bounds.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning (0,0)–(w,h).
func NewRect(w, h float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{w, h}}
}

// W returns the rectangle width.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the rectangle height.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	if p.X < r.Min.X {
		p.X = r.Min.X
	} else if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	} else if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Circle is a disk with center C and radius R.
type Circle struct {
	C Point
	R float64
}

// Contains reports whether p lies inside the circle (inclusive).
func (c Circle) Contains(p Point) bool {
	return c.C.Dist2(p) <= c.R*c.R
}

// LensArea returns the area of the intersection of two circles with radii r1
// and r2 whose centers are d apart. It handles the disjoint and contained
// cases exactly.
func LensArea(r1, r2, d float64) float64 {
	if r1 < 0 || r2 < 0 {
		return 0
	}
	if d >= r1+r2 {
		return 0 // disjoint
	}
	if d <= math.Abs(r1-r2) {
		// One circle contains the other.
		rm := math.Min(r1, r2)
		return math.Pi * rm * rm
	}
	// Standard circular-segment decomposition.
	d1 := (d*d - r2*r2 + r1*r1) / (2 * d)
	d2 := d - d1
	seg := func(r, x float64) float64 {
		// Area of the circular segment of circle radius r cut by a chord at
		// signed distance x from the center (x may be negative when the chord
		// is on the far side of the center).
		c := x / r
		if c > 1 {
			c = 1
		} else if c < -1 {
			c = -1
		}
		return r*r*math.Acos(c) - x*math.Sqrt(math.Max(0, r*r-x*x))
	}
	return seg(r1, d1) + seg(r2, d2)
}

// OverlapFraction returns the fraction of B's transmission disk that is also
// covered by A's transmission disk, for two radios of equal range r whose
// positions are d apart. This is the quantity p in the Optimized Gossiping-2
// postponement rule. The result is in [0, 1]; when the two peers are within
// range of each other (d ≤ r) it is at least 2/3 − √3/(2π) ≈ 0.391.
func OverlapFraction(r, d float64) float64 {
	if r <= 0 {
		return 0
	}
	return LensArea(r, r, d) / (math.Pi * r * r)
}

// SegmentCircleHit reports whether the segment from a to b intersects circle
// c, and if so the earliest parameter f ∈ [0,1] at which the segment is
// inside the circle. A segment that starts inside returns (0, true).
func SegmentCircleHit(a, b Point, c Circle) (f float64, hit bool) {
	if c.Contains(a) {
		return 0, true
	}
	d := b.Sub(a)
	m := a.Sub(c.C)
	// Solve |m + f·d|² = R² for f.
	A := d.Len2()
	if A == 0 {
		return 0, false // degenerate segment fully outside
	}
	B := 2 * m.Dot(d)
	C := m.Len2() - c.R*c.R
	disc := B*B - 4*A*C
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	f0 := (-B - sq) / (2 * A)
	if f0 >= 0 && f0 <= 1 {
		return f0, true
	}
	return 0, false
}
