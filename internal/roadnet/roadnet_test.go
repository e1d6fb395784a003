package roadnet

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

func TestGridShape(t *testing.T) {
	g, err := Grid(4, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("nodes = %d, want 12", g.N())
	}
	// 3 rows × 3 horizontal + 4 cols × 2 vertical = 9 + 8 = 17 edges.
	if g.M() != 17 {
		t.Fatalf("edges = %d, want 17", g.M())
	}
	if got, want := g.TotalLength(), 1700.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("total length = %v, want %v", got, want)
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(5) != 4 {
		t.Fatalf("degrees = %d,%d,%d want 2,3,4", g.Degree(0), g.Degree(1), g.Degree(5))
	}
	b := g.Bounds()
	if b.Min != (geo.Point{}) || b.Max != (geo.Point{X: 300, Y: 200}) {
		t.Fatalf("bounds = %+v", b)
	}
}

func TestShortestPathOnGrid(t *testing.T) {
	g, err := Grid(5, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Grid shortest paths are manhattan distances.
	path, dist, ok := g.ShortestPath(0, 24) // (0,0) -> (4,4)
	if !ok {
		t.Fatal("no path across grid")
	}
	if want := 800.0; math.Abs(dist-want) > 1e-9 {
		t.Fatalf("dist = %v, want %v", dist, want)
	}
	if len(path) != 9 || path[0] != 0 || path[len(path)-1] != 24 {
		t.Fatalf("path = %v", path)
	}
	// Consecutive path nodes must be road neighbors.
	for i := 1; i < len(path); i++ {
		found := false
		for _, h := range g.adj[path[i-1]] {
			if int(h.to) == path[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("path hop %d-%d is not an edge", path[i-1], path[i])
		}
	}
	// Deterministic tie-breaking: the same query always yields the same path.
	again, _, _ := g.ShortestPath(0, 24)
	if !reflect.DeepEqual(path, again) {
		t.Fatalf("path not deterministic: %v vs %v", path, again)
	}
	if p, d, ok := g.ShortestPath(7, 7); !ok || d != 0 || len(p) != 1 {
		t.Fatalf("self path = %v %v %v", p, d, ok)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g, err := NewGraph(
		[]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 500, Y: 0}, {X: 600, Y: 0}},
		[][2]int{{0, 1}, {2, 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := g.ShortestPath(0, 3); ok {
		t.Fatal("found a path across disconnected components")
	}
}

func TestParseRoundTrip(t *testing.T) {
	g, err := Grid(3, 2, 150)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip: %d/%d nodes/edges, want %d/%d", back.N(), back.M(), g.N(), g.M())
	}
	for i := 0; i < g.N(); i++ {
		if back.Pos(i) != g.Pos(i) {
			t.Fatalf("node %d moved: %v vs %v", i, back.Pos(i), g.Pos(i))
		}
	}
	if !reflect.DeepEqual(back.edges, g.edges) {
		t.Fatalf("edges changed: %v vs %v", back.edges, g.edges)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            "# nothing\n",
		"unknown":          "street 0 0 0\n",
		"short node":       "node 0 5\n",
		"bad coord":        "node 0 x 5\n",
		"inf coord":        "node 0 +Inf 5\n",
		"duplicate node":   "node 0 0 0\nnode 0 1 1\nedge 0 0\n",
		"sparse ids":       "node 0 0 0\nnode 2 5 5\nedge 0 2\n",
		"self loop":        "node 0 0 0\nnode 1 5 5\nedge 0 0\n",
		"unknown endpoint": "node 0 0 0\nnode 1 5 5\nedge 0 7\n",
		"duplicate edge":   "node 0 0 0\nnode 1 5 5\nedge 0 1\nedge 1 0\n",
		"negative id":      "node -1 0 0\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestParseOrderIndependent(t *testing.T) {
	// Edges before their nodes, ids declared out of order: both legal.
	g, err := Parse(strings.NewReader("edge 1 0\nnode 1 100 0\nnode 0 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 || g.edges[0].Length != 100 {
		t.Fatalf("graph = %d nodes %d edges %v", g.N(), g.M(), g.edges)
	}
}

func TestSamplePointsWeights(t *testing.T) {
	g, err := Grid(3, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	pts := g.SamplePoints(30)
	var sum float64
	for _, sp := range pts {
		sum += sp.W
		if g.Bounds().Clamp(sp.P) != sp.P {
			t.Fatalf("sample point %v outside bounds", sp.P)
		}
	}
	if math.Abs(sum-g.TotalLength()) > 1e-6 {
		t.Fatalf("sample weights sum %v, want total length %v", sum, g.TotalLength())
	}
	// Spacing 30 on 100 m edges → 4 points per edge.
	if want := g.M() * 4; len(pts) != want {
		t.Fatalf("%d sample points, want %d", len(pts), want)
	}
}

func TestPlaceRSUs(t *testing.T) {
	g, err := Grid(5, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range Placements() {
		ids, err := PlaceRSUs(g, 4, strat, rng.New(7).Split("rsu"))
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(ids) != 4 {
			t.Fatalf("%s: %d ids, want 4", strat, ids)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("%s: ids not strictly ascending: %v", strat, ids)
			}
		}
		// Deterministic given the same stream.
		again, _ := PlaceRSUs(g, 4, strat, rng.New(7).Split("rsu"))
		if !reflect.DeepEqual(ids, again) {
			t.Fatalf("%s: placement not deterministic: %v vs %v", strat, ids, again)
		}
	}
	// Spread starts at the center node of an odd grid.
	ids, _ := PlaceRSUs(g, 1, PlaceSpread, nil)
	if ids[0] != 12 {
		t.Fatalf("spread first unit at node %d, want center 12", ids[0])
	}
	// Degree prefers interior intersections (degree 4).
	ids, _ = PlaceRSUs(g, 2, PlaceDegree, nil)
	for _, id := range ids {
		if g.Degree(id) != 4 {
			t.Fatalf("degree placement picked node %d with degree %d", id, g.Degree(id))
		}
	}
	if _, err := PlaceRSUs(g, g.N()+1, PlaceSpread, nil); err == nil {
		t.Fatal("accepted more RSUs than intersections")
	}
	if ids, err := PlaceRSUs(g, 0, PlaceSpread, nil); err != nil || ids != nil {
		t.Fatalf("n=0: %v %v", ids, err)
	}
}

func TestParsePlacement(t *testing.T) {
	if p, err := ParsePlacement(""); err != nil || p != PlaceSpread {
		t.Fatalf("empty = %v %v", p, err)
	}
	for _, p := range Placements() {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Fatalf("%s: %v %v", p, got, err)
		}
	}
	if _, err := ParsePlacement("centroid"); err == nil {
		t.Fatal("accepted unknown placement")
	}
}

func TestNearestNode(t *testing.T) {
	g, err := Grid(3, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NearestNode(geo.Point{X: 140, Y: 90}); got != 4 {
		t.Fatalf("nearest = %d, want 4", got)
	}
}
