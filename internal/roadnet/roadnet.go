// Package roadnet models a road network as an undirected geometric graph:
// nodes are intersections with coordinates in meters, edges are straight
// road segments weighted by their euclidean length. It provides the
// edge-list import/export format road scenarios are described in, a synthetic
// grid generator for tests and default urban scenarios, deterministic
// shortest-path routing for the graph-constrained mobility model, and the
// roadside-unit placement strategies used by experiment scenarios.
//
// # File format
//
// A road file is line-oriented text. Blank lines and lines starting with
// '#' are ignored. Node ids must be dense (0…n−1, any order); edges
// reference declared nodes and may appear anywhere in the file:
//
//	# downtown grid
//	node 0 0 0
//	node 1 150 0
//	node 2 0 150
//	edge 0 1
//	edge 0 2
//
// Everything in this package is deterministic: adjacency lists are sorted,
// shortest paths tie-break on node id, and placement strategies either are
// rng-free or draw from an explicit stream.
package roadnet

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"instantad/internal/geo"
)

// Import bounds: a parsed file may not declare more nodes or edges than
// this, so a hostile (or fuzzed) input cannot balloon memory.
const (
	maxNodes = 1 << 20
	maxEdges = 1 << 22
)

// Edge is one undirected road segment between nodes A < B.
type Edge struct {
	A, B   int
	Length float64 // euclidean, meters
}

// halfEdge is one direction of an edge in the adjacency lists.
type halfEdge struct {
	to     int32
	length float64
}

// Graph is an immutable road network. Build one with NewGraph, Parse/Load,
// or the Grid generator.
type Graph struct {
	pos   []geo.Point
	edges []Edge
	adj   [][]halfEdge
	total float64
}

// NewGraph builds a graph from node positions and undirected node-id pairs.
// It rejects non-finite coordinates, out-of-range or self-loop pairs, and
// duplicate edges (in either direction).
func NewGraph(pos []geo.Point, pairs [][2]int) (*Graph, error) {
	n := len(pos)
	if n == 0 {
		return nil, fmt.Errorf("roadnet: no nodes")
	}
	if n > maxNodes {
		return nil, fmt.Errorf("roadnet: %d nodes exceeds limit %d", n, maxNodes)
	}
	if len(pairs) > maxEdges {
		return nil, fmt.Errorf("roadnet: %d edges exceeds limit %d", len(pairs), maxEdges)
	}
	for i, p := range pos {
		if !finite(p.X) || !finite(p.Y) {
			return nil, fmt.Errorf("roadnet: node %d has non-finite position %v", i, p)
		}
	}
	g := &Graph{
		pos:   append([]geo.Point(nil), pos...),
		edges: make([]Edge, 0, len(pairs)),
		adj:   make([][]halfEdge, n),
	}
	seen := make(map[[2]int]bool, len(pairs))
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("roadnet: edge %d-%d references unknown node (have %d nodes)", a, b, n)
		}
		if a == b {
			return nil, fmt.Errorf("roadnet: self-loop edge at node %d", a)
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return nil, fmt.Errorf("roadnet: duplicate edge %d-%d", a, b)
		}
		seen[[2]int{a, b}] = true
		length := g.pos[a].Dist(g.pos[b])
		g.edges = append(g.edges, Edge{A: a, B: b, Length: length})
		g.adj[a] = append(g.adj[a], halfEdge{to: int32(b), length: length})
		g.adj[b] = append(g.adj[b], halfEdge{to: int32(a), length: length})
		g.total += length
	}
	// Canonical adjacency order: sorted by neighbor id, so traversal order
	// never depends on the edge order of the source file.
	for i := range g.adj {
		sort.Slice(g.adj[i], func(x, y int) bool { return g.adj[i][x].to < g.adj[i][y].to })
	}
	return g, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// N returns the number of nodes (intersections).
func (g *Graph) N() int { return len(g.pos) }

// M returns the number of edges (road segments).
func (g *Graph) M() int { return len(g.edges) }

// Pos returns node i's position.
func (g *Graph) Pos(i int) geo.Point { return g.pos[i] }

// Degree returns the number of roads meeting at node i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// TotalLength returns the summed length of all road segments, meters.
func (g *Graph) TotalLength() float64 { return g.total }

// Bounds returns the axis-aligned bounding box of all nodes.
func (g *Graph) Bounds() geo.Rect {
	r := geo.Rect{Min: g.pos[0], Max: g.pos[0]}
	for _, p := range g.pos[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// NearestNode returns the node closest to p (lowest id on ties).
func (g *Graph) NearestNode(p geo.Point) int {
	best, bestD := 0, math.Inf(1)
	for i, q := range g.pos {
		if d := q.Dist2(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// pathItem is one heap entry of the Dijkstra frontier.
type pathItem struct {
	dist float64
	node int32
}

// pathHeap is a binary min-heap ordered by (dist, node id) — the id
// tie-break makes the pop order, and therefore the chosen path among
// equal-cost alternatives, independent of insertion order.
type pathHeap []pathItem

func (h pathHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

func (h *pathHeap) push(it pathItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *pathHeap) pop() pathItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && h.less(l, m) {
			m = l
		}
		if r < len(s) && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// ShortestPath returns the minimum-length node sequence from a to b
// (inclusive of both) and its length in meters. ok is false when b is
// unreachable from a. The path is deterministic: ties resolve toward lower
// node ids.
func (g *Graph) ShortestPath(a, b int) (path []int, dist float64, ok bool) {
	n := g.N()
	if a < 0 || a >= n || b < 0 || b >= n {
		return nil, 0, false
	}
	if a == b {
		return []int{a}, 0, true
	}
	const unvisited = -1
	distTo := make([]float64, n)
	prev := make([]int32, n)
	for i := range distTo {
		distTo[i] = math.Inf(1)
		prev[i] = unvisited
	}
	done := make([]bool, n)
	distTo[a] = 0
	h := pathHeap{{dist: 0, node: int32(a)}}
	for len(h) > 0 {
		it := h.pop()
		u := int(it.node)
		if done[u] {
			continue
		}
		done[u] = true
		if u == b {
			break
		}
		for _, e := range g.adj[u] {
			v := int(e.to)
			nd := it.dist + e.length
			if nd < distTo[v] || (nd == distTo[v] && prev[v] > int32(u)) {
				distTo[v] = nd
				prev[v] = int32(u)
				h.push(pathItem{dist: nd, node: e.to})
			}
		}
	}
	if math.IsInf(distTo[b], 1) {
		return nil, 0, false
	}
	for v := int32(b); v != unvisited; v = prev[v] {
		path = append(path, int(v))
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, distTo[b], true
}

// Grid builds a cols×rows street grid with the given intersection spacing:
// node (c, r) has id r·cols+c at position (c·spacing, r·spacing), connected
// to its right and upper neighbors.
func Grid(cols, rows int, spacing float64) (*Graph, error) {
	if cols < 1 || rows < 1 || cols*rows < 2 {
		return nil, fmt.Errorf("roadnet: grid %dx%d needs at least 2 nodes", cols, rows)
	}
	if spacing <= 0 || !finite(spacing) {
		return nil, fmt.Errorf("roadnet: non-positive grid spacing %v", spacing)
	}
	if cols*rows > maxNodes {
		return nil, fmt.Errorf("roadnet: grid %dx%d exceeds node limit", cols, rows)
	}
	pos := make([]geo.Point, 0, cols*rows)
	var pairs [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			pos = append(pos, geo.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
			if c+1 < cols {
				pairs = append(pairs, [2]int{id, id + 1})
			}
			if r+1 < rows {
				pairs = append(pairs, [2]int{id, id + cols})
			}
		}
	}
	return NewGraph(pos, pairs)
}

// Parse reads a graph in the package's edge-list format (see the package
// comment). Node lines may appear in any order but must form the dense id
// range 0…n−1; edges are validated against the declared node set.
func Parse(r io.Reader) (*Graph, error) {
	type rawEdge struct {
		a, b int
		line int
	}
	nodes := make(map[int]geo.Point)
	var edges []rawEdge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 4 {
				return nil, fmt.Errorf("roadnet: line %d: want 'node <id> <x> <y>', got %q", lineNo, line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= maxNodes {
				return nil, fmt.Errorf("roadnet: line %d: bad node id %q", lineNo, fields[1])
			}
			x, errX := strconv.ParseFloat(fields[2], 64)
			y, errY := strconv.ParseFloat(fields[3], 64)
			if errX != nil || errY != nil || !finite(x) || !finite(y) {
				return nil, fmt.Errorf("roadnet: line %d: bad node coordinates %q %q", lineNo, fields[2], fields[3])
			}
			if _, dup := nodes[id]; dup {
				return nil, fmt.Errorf("roadnet: line %d: duplicate node %d", lineNo, id)
			}
			if len(nodes) >= maxNodes {
				return nil, fmt.Errorf("roadnet: line %d: too many nodes", lineNo)
			}
			nodes[id] = geo.Point{X: x, Y: y}
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("roadnet: line %d: want 'edge <a> <b>', got %q", lineNo, line)
			}
			a, errA := strconv.Atoi(fields[1])
			b, errB := strconv.Atoi(fields[2])
			if errA != nil || errB != nil || a < 0 || b < 0 || a >= maxNodes || b >= maxNodes {
				return nil, fmt.Errorf("roadnet: line %d: bad edge endpoints %q %q", lineNo, fields[1], fields[2])
			}
			if len(edges) >= maxEdges {
				return nil, fmt.Errorf("roadnet: line %d: too many edges", lineNo)
			}
			edges = append(edges, rawEdge{a: a, b: b, line: lineNo})
		default:
			return nil, fmt.Errorf("roadnet: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("roadnet: %w", err)
	}
	n := len(nodes)
	if n == 0 {
		return nil, fmt.Errorf("roadnet: no nodes declared")
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("roadnet: no edges declared")
	}
	pos := make([]geo.Point, n)
	for id, p := range nodes {
		if id >= n {
			return nil, fmt.Errorf("roadnet: node ids not dense: have %d nodes but id %d", n, id)
		}
		pos[id] = p
	}
	pairs := make([][2]int, 0, len(edges))
	for _, e := range edges {
		if e.a >= n || e.b >= n {
			return nil, fmt.Errorf("roadnet: line %d: edge %d-%d references undeclared node", e.line, e.a, e.b)
		}
		pairs = append(pairs, [2]int{e.a, e.b})
	}
	return NewGraph(pos, pairs)
}

// Load reads a road file from disk.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("roadnet: road file: %w", err)
	}
	defer f.Close()
	g, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("roadnet: %s: %w", path, err)
	}
	return g, nil
}

// Write emits the graph in the edge-list format Parse reads, so generated
// networks (Grid, Ring) can be saved and replayed as road files.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# road network: %d nodes, %d edges, %.0f m total\n", g.N(), g.M(), g.total)
	for i, p := range g.pos {
		fmt.Fprintf(bw, "node %d %g %g\n", i, p.X, p.Y)
	}
	for _, e := range g.edges {
		fmt.Fprintf(bw, "edge %d %d\n", e.A, e.B)
	}
	return bw.Flush()
}

// SamplePoint is one discretization point of the road network: a position
// on some edge plus the road length (meters) it stands for.
type SamplePoint struct {
	P geo.Point
	W float64
}

// SamplePoints discretizes every edge into points roughly `spacing` meters
// apart (at least one per edge, at sub-segment midpoints). The weights of
// one edge's points sum exactly to the edge length, so length-weighted
// fractions over the points are exact per edge.
func (g *Graph) SamplePoints(spacing float64) []SamplePoint {
	if spacing <= 0 {
		spacing = 25
	}
	var pts []SamplePoint
	for _, e := range g.edges {
		k := int(math.Ceil(e.Length / spacing))
		if k < 1 {
			k = 1
		}
		step := e.Length / float64(k)
		a, b := g.pos[e.A], g.pos[e.B]
		for j := 0; j < k; j++ {
			f := (float64(j) + 0.5) / float64(k)
			pts = append(pts, SamplePoint{P: a.Lerp(b, f), W: step})
		}
	}
	return pts
}
