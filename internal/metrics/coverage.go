package metrics

import (
	"instantad/internal/geo"
	"instantad/internal/obs"
	"instantad/internal/roadnet"
)

// RoadCoverage measures the urban VANET coverage metric: the fraction of the
// advertising area's road length currently within radio range of an informed
// peer. Road edges are discretized once into length-weighted sample points
// (roadnet.SamplePoints) indexed by a flat uniform grid; each measurement
// marks the points reachable from informed peers and takes the
// length-weighted covered/target ratio over the points inside the ad's
// current radius R_t.
//
// The measurer only reads pure channel queries (positions, ranges, online
// flags), never the radio's spatial snapshot, so enabling it cannot perturb
// grid rebuild order or any RNG stream — determinism is untouched.
type RoadCoverage struct {
	pts []roadnet.SamplePoint

	// Flat uniform grid over the sample points (CSR layout).
	minX, minY float64
	cell       float64
	nx, ny     int
	cellStart  []int32
	cellPts    []int32

	// mark[i] == gen marks point i covered in the current measurement;
	// bumping gen clears all marks in O(1).
	mark []uint32
	gen  uint32
}

// NewRoadCoverage discretizes g at the given sample spacing in meters
// (25 m if zero or negative — fine-grained against the ~100 m radio ranges
// the scenarios use).
func NewRoadCoverage(g *roadnet.Graph, spacing float64) *RoadCoverage {
	if spacing <= 0 {
		spacing = 25
	}
	pts := g.SamplePoints(spacing)
	rc := &RoadCoverage{
		pts:  pts,
		cell: 4 * spacing,
		mark: make([]uint32, len(pts)),
	}
	b := g.Bounds()
	rc.minX, rc.minY = b.Min.X, b.Min.Y
	rc.nx = int((b.Max.X-b.Min.X)/rc.cell) + 1
	rc.ny = int((b.Max.Y-b.Min.Y)/rc.cell) + 1

	// Counting sort into CSR cell lists.
	counts := make([]int32, rc.nx*rc.ny+1)
	cellOf := func(p geo.Point) int {
		cx := int((p.X - rc.minX) / rc.cell)
		cy := int((p.Y - rc.minY) / rc.cell)
		return cy*rc.nx + cx
	}
	for _, sp := range pts {
		counts[cellOf(sp.P)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	rc.cellStart = counts
	rc.cellPts = make([]int32, len(pts))
	next := append([]int32(nil), counts[:len(counts)-1]...)
	for i, sp := range pts {
		c := cellOf(sp.P)
		rc.cellPts[next[c]] = int32(i)
		next[c]++
	}
	return rc
}

// DistancesFrom precomputes each sample point's distance to origin, the
// per-ad half of the Fraction query.
func (rc *RoadCoverage) DistancesFrom(origin geo.Point) []float64 {
	out := make([]float64, len(rc.pts))
	for i, sp := range rc.pts {
		out[i] = sp.P.Dist(origin)
	}
	return out
}

// BeginMark starts a new measurement, clearing all coverage marks.
func (rc *RoadCoverage) BeginMark() {
	rc.gen++
	if rc.gen == 0 { // generation wrap: flush stale marks the slow way
		for i := range rc.mark {
			rc.mark[i] = 0
		}
		rc.gen = 1
	}
}

// MarkAround marks every sample point within radius of p as covered.
func (rc *RoadCoverage) MarkAround(p geo.Point, radius float64) {
	if radius <= 0 {
		return
	}
	clampX := func(c int) int { return min(max(c, 0), rc.nx-1) }
	clampY := func(c int) int { return min(max(c, 0), rc.ny-1) }
	cx0 := clampX(int((p.X - radius - rc.minX) / rc.cell))
	cx1 := clampX(int((p.X + radius - rc.minX) / rc.cell))
	cy0 := clampY(int((p.Y - radius - rc.minY) / rc.cell))
	cy1 := clampY(int((p.Y + radius - rc.minY) / rc.cell))
	r2 := radius * radius
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			cell := cy*rc.nx + cx
			for _, pi := range rc.cellPts[rc.cellStart[cell]:rc.cellStart[cell+1]] {
				if rc.mark[pi] != rc.gen && rc.pts[pi].P.Dist2(p) <= r2 {
					rc.mark[pi] = rc.gen
				}
			}
		}
	}
}

// Fraction returns the length-weighted covered and target road length among
// the sample points within rt of the ad origin, using the distances from
// DistancesFrom and the marks laid since BeginMark. target is 0 when no road
// runs inside the radius.
func (rc *RoadCoverage) Fraction(distToOrigin []float64, rt float64) (covered, target float64) {
	for i, d := range distToOrigin {
		if d > rt {
			continue
		}
		w := rc.pts[i].W
		target += w
		if rc.mark[i] == rc.gen {
			covered += w
		}
	}
	return covered, target
}

// EnableRoadCoverage attaches a road-coverage measurer to the collector: ads
// issued afterwards have their coverage sampled on the collector's cadence
// and its peak reported. reg (optional, may be nil) gains a
// sim_road_coverage gauge reporting the latest covered fraction across live
// tracked ads.
func (c *Collector) EnableRoadCoverage(rc *RoadCoverage, reg *obs.Registry) {
	c.roadCov = rc
	if reg != nil {
		reg.GaugeFunc("sim_road_coverage",
			"fraction of in-area road length within radio range of an informed peer (latest sample, max over live ads)",
			func() float64 { return c.lastCoverage })
	}
}

// coverAd takes one coverage measurement for a live tracked ad.
func (c *Collector) coverAd(tr *adTrack, rt float64) float64 {
	rc := c.roadCov
	rc.BeginMark()
	tr.each(func(k, i int) {
		if tr.received[k] && c.ch.Online(i) {
			rc.MarkAround(c.ch.PositionOf(i), c.ch.RangeOf(i))
		}
	})
	covered, target := rc.Fraction(tr.covDist, rt)
	frac := 0.0
	if target > 0 {
		frac = covered / target
	}
	if frac > tr.covPeak {
		tr.covPeak = frac
	}
	return frac
}
