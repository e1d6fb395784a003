package metrics

import (
	"math"
	"testing"

	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/roadnet"
)

// TestRoadCoverageGeometry checks MarkAround/Fraction on a known geometry:
// a single straight 1000 m road with one informed peer parked at one end.
func TestRoadCoverageGeometry(t *testing.T) {
	g, err := roadnet.NewGraph(
		[]geo.Point{{X: 0, Y: 0}, {X: 1000, Y: 0}},
		[][2]int{{0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRoadCoverage(g, 10) // 100 points, 10 m weight each
	total := 0.0
	for _, sp := range rc.pts {
		total += sp.W
	}
	if len(rc.pts) != 100 || total != 1000 {
		t.Fatalf("discretization: %d points, %v m", len(rc.pts), total)
	}

	dist := rc.DistancesFrom(geo.Point{X: 0, Y: 0})
	rc.BeginMark()
	rc.MarkAround(geo.Point{X: 0, Y: 0}, 250)
	// Radius covers the whole road: target = 1000 m, covered = the first
	// 250 m of sample midpoints.
	covered, target := rc.Fraction(dist, 2000)
	if target != 1000 {
		t.Fatalf("target = %v, want 1000", target)
	}
	if math.Abs(covered-250) > 10 { // midpoint discretization: ±1 point
		t.Fatalf("covered = %v, want ≈250", covered)
	}

	// Restrict the area radius to 500 m: same covered length, half target.
	covered, target = rc.Fraction(dist, 500)
	if math.Abs(target-500) > 10 || math.Abs(covered-250) > 10 {
		t.Fatalf("rt=500: covered %v / target %v, want ≈250/500", covered, target)
	}

	// A fresh measurement with no marks covers nothing.
	rc.BeginMark()
	if covered, _ = rc.Fraction(dist, 2000); covered != 0 {
		t.Fatalf("unmarked covered = %v, want 0", covered)
	}

	// Two peers covering disjoint halves sum without double counting the
	// overlap at the seam.
	rc.BeginMark()
	rc.MarkAround(geo.Point{X: 250, Y: 0}, 260)
	rc.MarkAround(geo.Point{X: 750, Y: 0}, 260)
	covered, target = rc.Fraction(dist, 2000)
	if math.Abs(covered-target) > 1e-9 {
		t.Fatalf("two peers: covered %v of %v, want full", covered, target)
	}

	// Off-road marking (far off the grid) must not panic or cover anything.
	rc.BeginMark()
	rc.MarkAround(geo.Point{X: -5000, Y: 7000}, 100)
	if covered, _ = rc.Fraction(dist, 2000); covered != 0 {
		t.Fatalf("off-road mark covered %v", covered)
	}
}

// TestRoadCoverageEndToEnd runs a tiny static network on a road graph and
// checks the collector's sampled coverage gauge and peak report.
func TestRoadCoverageEndToEnd(t *testing.T) {
	g, err := roadnet.Grid(3, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Peers at three intersections; radio range default covers a chunk of
	// the 400×400 m grid around each.
	models := []mobility.Model{
		mobility.NewStatic(g.Pos(0)),
		mobility.NewStatic(g.Pos(4)),
		mobility.NewStatic(g.Pos(8)),
	}
	cfg := coreConfig()
	s, n, col := buildNet(t, models, cfg)
	reg := obs.NewRegistry()
	col.InstrumentWith(reg)
	col.EnableRoadCoverage(NewRoadCoverage(g, 0), reg)
	n.Start()

	ad, err := n.IssueAd(1, core.AdSpec{R: 600, D: 300, Category: "x"})
	if err != nil {
		t.Fatal(err)
	}

	// Sample by sample, the gauge carries the one live ad's covered fraction.
	var fracs []float64
	for now := 1.0; now <= 60; now++ {
		s.Run(now)
		fracs = append(fracs, reg.Snapshot().Gauges["sim_road_coverage"])
	}
	for i, f := range fracs {
		if f < 0 || f > 1 {
			t.Fatalf("sample %d: fraction %v outside [0,1]", i, f)
		}
	}
	// The issuer alone covers some road from the center intersection.
	if fracs[0] <= 0 {
		t.Fatal("informed issuer covers no road length")
	}
	rep, err := col.Report(ad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoadCoverage <= 0 || rep.RoadCoverage > 1 {
		t.Fatalf("RoadCoverage = %v, want in (0,1]", rep.RoadCoverage)
	}
	for _, f := range fracs {
		if f > rep.RoadCoverage {
			t.Fatalf("peak %v below sample %v", rep.RoadCoverage, f)
		}
	}
}
