package radio

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/rng"
	"instantad/internal/roadnet"
	"instantad/internal/sim"
)

// refGrid is the reference the channel's refresh is tested against: the full
// rebuild it used to be. Every call evaluates every model through Position,
// takes the bounding box, chooses the geometry, and counting-sorts positions
// it keeps in a column of their own. It caches nothing between calls, is slow
// and obviously right, and the channel's snapshot must equal it to the last
// element after every refresh.
type refGrid struct {
	models   []mobility.Model
	cellSize float64

	cell       float64
	minX, minY float64
	nx, ny     int
	cellStart  []int32
	cellNodes  []int32

	built bool    // eagerAt has rebuilt the reference at least once
	at    float64 // the instant eagerAt last rebuilt it at
}

func newRefGrid(cfg Config, models []mobility.Model) *refGrid {
	return &refGrid{models: models, cellSize: cfg.Range}
}

func (g *refGrid) cellIndex(p geo.Point) int {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx*g.ny + cy
}

func (g *refGrid) rebuild(now float64) {
	n := len(g.models)
	pos := make([]geo.Point, n)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i, m := range g.models {
		p := m.Position(now)
		pos[i] = p
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	cs := g.cellSize
	for {
		ox := cs * math.Floor(minX/cs)
		oy := cs * math.Floor(minY/cs)
		g.nx = int(math.Floor((maxX-ox)/cs)) + 1
		g.ny = int(math.Floor((maxY-oy)/cs)) + 1
		if g.nx*g.ny <= maxGridCells || g.nx*g.ny <= 4*n {
			g.minX, g.minY = ox, oy
			break
		}
		cs *= 2
	}
	g.cell = cs
	ncells := g.nx * g.ny
	g.cellStart = make([]int32, ncells+1)
	g.cellNodes = make([]int32, n)
	for i := range pos {
		g.cellStart[g.cellIndex(pos[i])+1]++
	}
	for i := 1; i < len(g.cellStart); i++ {
		g.cellStart[i] += g.cellStart[i-1]
	}
	cursor := slices.Clone(g.cellStart)
	for i := range pos {
		cell := g.cellIndex(pos[i])
		g.cellNodes[cursor[cell]] = int32(i)
		cursor[cell]++
	}
}

// diff reports the first difference between the channel's grid and the
// reference's, or "".
func (g *refGrid) diff(c *Channel) string {
	if c.gridCell != g.cell || c.gridMinX != g.minX || c.gridMinY != g.minY || c.gridNX != g.nx || c.gridNY != g.ny {
		return fmt.Sprintf("geometry (cell %v, origin %v,%v, %d×%d), want (cell %v, origin %v,%v, %d×%d)",
			c.gridCell, c.gridMinX, c.gridMinY, c.gridNX, c.gridNY, g.cell, g.minX, g.minY, g.nx, g.ny)
	}
	if !slices.Equal(c.cellStart, g.cellStart) {
		return "cellStart differs"
	}
	if !slices.Equal(c.cellNodes, g.cellNodes) {
		return "cellNodes differs"
	}
	return ""
}

// refPopulation is one row of the reference test: a population and what is
// expected of the refresh over it.
type refPopulation struct {
	name    string
	models  []mobility.Model
	txRange float64 // Config.Range
	vmax    float64
	// steady: the refresh test must see both a build a refresh after the
	// last and, where peers move, one after a refresh that kept the grid.
	steady bool
}

func must[T any](t *testing.T) func(T, error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func refPopulations(t *testing.T) []refPopulation {
	const (
		n       = 240
		horizon = 400.0
	)
	field := geo.NewRect(3000, 3000)
	model := must[mobility.Model](t)
	each := func(mk func(s *rng.Stream) mobility.Model) []mobility.Model {
		r := rng.New(17)
		out := make([]mobility.Model, n)
		for i := range out {
			out[i] = mk(r.SplitIndex("node", i))
		}
		return out
	}
	waypoint := each(func(s *rng.Stream) mobility.Model {
		return model(mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Field: field, SpeedMean: 10, SpeedDelta: 5, Pause: 2, Horizon: horizon}, s))
	})
	walk := each(func(s *rng.Stream) mobility.Model {
		return model(mobility.NewRandomWalk(mobility.RandomWalkConfig{
			Field: field, SpeedMean: 10, SpeedDelta: 5, Epoch: 30, Horizon: horizon}, s))
	})
	manhattan := each(func(s *rng.Stream) mobility.Model {
		return model(mobility.NewManhattan(mobility.ManhattanConfig{
			Field: field, BlockSize: 200, SpeedMean: 10, SpeedDelta: 5, Horizon: horizon}, s))
	})
	rpgm := must[[]mobility.Model](t)(mobility.NewRPGMPopulation(n, mobility.RPGMConfig{
		Field: field, GroupSize: 6, GroupRadius: 60, SpeedMean: 8, SpeedDelta: 4,
		MemberSpeed: 2, Pause: 1, Horizon: horizon}, rng.New(23)))
	graph := must[*roadnet.Graph](t)(roadnet.Grid(8, 8, 400))
	road := each(func(s *rng.Stream) mobility.Model {
		return model(mobility.NewRoad(mobility.RoadConfig{
			Graph: graph, SpeedMean: 10, SpeedDelta: 5, Pause: 3, Horizon: horizon}, s))
	})
	static := each(func(s *rng.Stream) mobility.Model {
		return mobility.NewStatic(geo.Point{X: s.Range(0, 3000), Y: s.Range(0, 3000)})
	})

	// An NS-2 script around the origin, so the grid origin is negative and
	// not a multiple the positive quadrant would produce. Node 0 then walks
	// out of everyone's bounding box, stays out, and comes back: the box
	// grows and shrinks under a snapshot that otherwise barely changes.
	var script strings.Builder
	r := rng.New(29)
	const traceN = 60
	for i := 0; i < traceN; i++ {
		x, y := r.Range(-900, 400), r.Range(-700, 600)
		fmt.Fprintf(&script, "$node_(%d) set X_ %.3f\n$node_(%d) set Y_ %.3f\n$node_(%d) set Z_ 0\n", i, x, i, y, i)
		at := r.Range(0, 20)
		for k := 0; k < 4 && i > 0; k++ {
			nx, ny := r.Range(-900, 400), r.Range(-700, 600)
			speed := r.Range(5, 15)
			fmt.Fprintf(&script, "$ns_ at %.3f \"$node_(%d) setdest %.3f %.3f %.3f\"\n", at, i, nx, ny, speed)
			at += math.Hypot(nx-x, ny-y)/speed + r.Range(0, 10)
			x, y = nx, ny
		}
	}
	fmt.Fprintf(&script, "$ns_ at 30.0 \"$node_(0) setdest -2000.0 -1500.0 15.0\"\n")
	fmt.Fprintf(&script, "$ns_ at 240.0 \"$node_(0) setdest 0.0 0.0 15.0\"\n")
	byID := must[map[int]mobility.Model](t)(mobility.ParseNS2(strings.NewReader(script.String())))
	trace := make([]mobility.Model, traceN)
	for i := range trace {
		trace[i] = byID[i]
	}

	// Two hundred kilometres at a 50 m range is 16 M cells for 40 nodes: the
	// cell doubles until the array fits, and such a snapshot is never steady.
	sparse := make([]mobility.Model, 40)
	for i := range sparse {
		sparse[i] = model(mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Field: geo.NewRect(200e3, 200e3), SpeedMean: 10, SpeedDelta: 5, Horizon: horizon},
			rng.New(31).SplitIndex("node", i)))
	}

	return []refPopulation{
		{name: "random-waypoint", models: waypoint, txRange: 250, vmax: 15, steady: true},
		{name: "random-walk", models: walk, txRange: 250, vmax: 15, steady: true},
		{name: "manhattan", models: manhattan, txRange: 250, vmax: 15, steady: true},
		{name: "road", models: road, txRange: 250, vmax: 15, steady: true},
		{name: "static", models: static, txRange: 250, vmax: 0, steady: true},
		{name: "rpgm", models: rpgm, txRange: 250, vmax: 14, steady: true},
		{name: "ns2-trace-leaves-box", models: trace, txRange: 250, vmax: 15, steady: true},
		{name: "sparse-doubled-cell", models: sparse, txRange: 50, vmax: 15},
	}
}

// query is the reference every query is tested against: the nodes within
// radius of center now, excluding exclude and offline radios, in the order of
// the reference's own snapshot — cell x-major, ascending id within a cell —
// found by scanning every node of it, one conditional append each. Its
// snapshot must be the one rebuilt at the channel's snapshot instant
// (eagerAt), whether or not the channel built its grid then.
func (g *refGrid) query(c *Channel, dst []int, center geo.Point, radius float64, exclude int) []int {
	now := c.sim.Now()
	for _, j32 := range g.cellNodes {
		j := int(j32)
		if j == exclude || !c.Online(j) {
			continue
		}
		if g.models[j].Position(now).Dist2(center) <= radius*radius {
			dst = append(dst, j)
		}
	}
	return dst
}

// eagerAt rebuilds the reference at the channel's snapshot instant unless it
// already stands there, and returns it.
func (g *refGrid) eagerAt(c *Channel) *refGrid {
	if !g.built || g.at != c.gridAt {
		g.rebuild(c.gridAt)
		g.built, g.at = true, c.gridAt
	}
	return g
}

// staleness tallies the queries a test made by how they found the channel:
// on a grid built at the snapshot instant, or on an older one, sorting any
// hits (and the oldest such grid), or falling back to a rebuild.
type staleness struct {
	fresh, sorted, fallbacks int
	maxAge                   float64
}

// query runs one AppendNodesWithin and files it.
func (st *staleness) query(c *Channel, rebuilds *obs.Counter, dst []int, center geo.Point, radius float64, exclude int) []int {
	c.RefreshGrid()
	before, stale, age := rebuilds.Value(), c.builtAt != c.gridAt, c.gridAt-c.builtAt
	dst = c.AppendNodesWithin(dst, center, radius, exclude)
	switch {
	case !stale:
		st.fresh++
	case rebuilds.Value() != before:
		st.fallbacks++
	default:
		st.sorted++
		st.maxAge = max(st.maxAge, age)
	}
	return dst
}

// TestQueryMatchesReference is the query's oracle. Over every mobility family
// of the refresh test, at irregular instants, with radios powering off and on
// and every fifth node a short-range handset, each query must return exactly
// the ids of the eager reference at the channel's snapshot instant, in its
// order, after an untouched dst prefix — for neighbour queries and for discs
// of any radius and centre, excluding nobody, the querying node, or an id
// that is not there. Busy spells (many queries, so many hits that every
// refresh builds the grid) alternate with quiet ones (a query every few
// seconds), in which the grid ages up to its slack and hits are sorted: both
// paths must run, and where peers move, sorting off grids more than half the
// slack old.
// The reference is itself checked against every model's own position, and
// the NS-2 trace must have queried nodes whose leg ended after the grid was
// built (the model path).
func TestQueryMatchesReference(t *testing.T) {
	prefix := []int{-3, -2, -1}
	type fixture struct {
		ch       *Channel
		models   []mobility.Model
		ref      *refGrid
		rebuilds *obs.Counter
		st       staleness
	}
	newFixture := func(t *testing.T, cfg Config, models []mobility.Model) *fixture {
		ch, err := New(sim.New(), cfg, models, func(int, Frame) {}, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		ch.InstrumentWith(reg)
		return &fixture{ch: ch, models: models, ref: newRefGrid(cfg, models),
			rebuilds: reg.Counter("radio_grid_rebuilds_total", "")}
	}
	check := func(t *testing.T, f *fixture, center geo.Point, radius float64, exclude int) {
		t.Helper()
		ch := f.ch
		got := f.st.query(ch, f.rebuilds, slices.Clone(prefix), center, radius, exclude)
		want := f.ref.eagerAt(ch).query(ch, slices.Clone(prefix), center, radius, exclude)
		if !slices.Equal(got, want) {
			t.Fatalf("t=%v (grid %v, snapshot %v): query (%v, %v, exclude %d) = %v, want %v",
				ch.sim.Now(), ch.builtAt, ch.gridAt, center, radius, exclude, got, want)
		}
		var brute []int
		for j, m := range f.models {
			if j != exclude && ch.Online(j) && m.Position(ch.sim.Now()).Dist2(center) <= radius*radius {
				brute = append(brute, j)
			}
		}
		ids := slices.Clone(want[len(prefix):])
		if slices.Sort(ids); !slices.Equal(ids, brute) {
			t.Fatalf("t=%v: reference %v, models say %v", ch.sim.Now(), ids, brute)
		}
	}

	for _, pop := range refPopulations(t) {
		t.Run(pop.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Range = pop.txRange
			cfg.MaxSpeed = pop.vmax
			f := newFixture(t, cfg, pop.models)
			ch, s := f.ch, f.ch.sim
			n := len(pop.models)
			for i := 0; i < n; i += 5 {
				if err := ch.SetNodeRange(i, 0.4*cfg.Range); err != nil {
					t.Fatal(err)
				}
			}
			r := rng.New(43)
			var queries, legEnded int
			step := func(rounds int) {
				if err := ch.SetOnline(r.Intn(n), r.Bool(0.6)); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < rounds; k++ {
					i := r.Intn(n)
					exclude := [...]int{-1, i, n}[k%3]
					check(t, f, ch.PositionOf(i), ch.RangeOf(i), exclude)
					center := ch.PositionOf(i).Add(geo.Vec{X: r.Range(-300, 300), Y: r.Range(-300, 300)})
					check(t, f, center, r.Range(0, 2*cfg.Range), exclude)
					check(t, f, ch.PositionOf(i), ch.RangeOf(i), i) // AppendNeighborsOf's query
					queries += 3
				}
				for j := range ch.pieces {
					if pc := &ch.pieces[j]; pc.T1 > ch.builtAt && pc.T1 <= s.Now() {
						legEnded++
					}
				}
			}
			// Busy spells of 20 s, steps of 0.05–0.6 s: a query at every age
			// of a snapshot, which only a query GridRefresh after it
			// replaces. Quiet spells of 20 s, one neighbour query every
			// 1.5–4.5 s.
			for at := 0.0; at < 320; {
				if int(at/20)%2 == 0 {
					s.Schedule(at, func() { step(6) })
					at += r.Range(0.05, 0.6)
				} else {
					s.Schedule(at, func() {
						i := r.Intn(n)
						check(t, f, ch.PositionOf(i), ch.RangeOf(i), i)
						queries++
					})
					at += r.Range(1.5, 4.5)
				}
			}
			s.RunAll()
			st := f.st
			t.Logf("%d queries: %d on a fresh grid, %d sorted (grid up to %.2f s older than the snapshot), %d fell back",
				queries, st.fresh, st.sorted, st.maxAge, st.fallbacks)
			if queries < 5000 {
				t.Fatalf("only %d queries compared", queries)
			}
			if ch.steady != (st.sorted > 0) || st.fresh < queries/2 {
				t.Errorf("steady grid %v, but %d queries sorted and %d ran on a fresh grid", ch.steady, st.sorted, st.fresh)
			}
			if reach := maxSlack * cfg.Range / cfg.MaxSpeed; ch.steady && cfg.MaxSpeed > 0 && st.maxAge < reach/2 {
				t.Errorf("grid at most %.2f s older than a sorting query's snapshot, want over %.2f s", st.maxAge, reach/2)
			}
			if pop.name == "ns2-trace-leaves-box" && legEnded == 0 {
				t.Errorf("no node's leg ended between a grid build and a query: the model path went untested")
			}
		})
	}

	static := func(t *testing.T, pts ...geo.Point) *fixture {
		models := make([]mobility.Model, len(pts))
		for i, p := range pts {
			models[i] = mobility.NewStatic(p)
		}
		return newFixture(t, DefaultConfig(), models)
	}

	// A node exactly on the circle is in range: Dist2 == r² is a hit.
	t.Run("on-the-circle", func(t *testing.T) {
		pts := []geo.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: -5, Y: 0}, {X: 0, Y: math.Nextafter(5, 6)}, {X: 4, Y: -3}}
		f := static(t, pts...)
		for _, exclude := range []int{-1, 0, len(pts)} {
			check(t, f, geo.Point{}, 5, exclude)
		}
		got := f.ch.AppendNodesWithin(nil, geo.Point{}, 5, -1)
		if slices.Sort(got); !slices.Equal(got, []int{0, 1, 2, 4}) {
			t.Fatalf("disc of radius 5 = %v, want [0 1 2 4]", got)
		}
	})

	// A disc over the whole field, its hits sorted once the grid has aged:
	// every node, from every cell, in one sort.
	t.Run("whole-field", func(t *testing.T) {
		pop := refPopulations(t)[0]
		cfg := DefaultConfig()
		cfg.MaxSpeed = pop.vmax
		f := newFixture(t, cfg, pop.models)
		s := f.ch.sim
		for k := 0; k <= 12; k++ {
			s.Schedule(float64(k), f.ch.RefreshGrid)
		}
		s.Schedule(12.5, func() { check(t, f, geo.Point{X: 1500, Y: 1500}, 3000, -1) })
		s.RunAll()
		if f.st.sorted != 1 {
			t.Fatalf("the query did not sort its hits: %+v", f.st)
		}
	})

	// Nodes on a cell edge, and one ulp inside one, are where lattice and
	// dense cells may part: a query that hits them off an older grid must
	// build the grid at the snapshot instant instead of sorting. A hundred far
	// nodes keep the hit count under an eighth of the population.
	t.Run("edge-forces-fallback", func(t *testing.T) {
		pts := []geo.Point{
			{X: 100, Y: 100}, {X: 300, Y: 80},
			{X: 250, Y: 420}, {X: 180, Y: 380}, // node 2 on the edge x = 250
			{X: math.Nextafter(500, 0), Y: 140}, {X: 430, Y: 160}, // node 4 one ulp short of x = 500
			{X: 600, Y: math.Nextafter(-250, 0)}, {X: 640, Y: -200}, // node 6 one ulp inside y = −250
		}
		for i := 0; i < 100; i++ {
			pts = append(pts, geo.Point{X: 5000 + 20*float64(i), Y: 3000})
		}
		f := static(t, pts...)
		s := f.ch.sim
		discs := []struct {
			center geo.Point
			radius float64
			edge   bool
		}{
			{geo.Point{X: 200, Y: 90}, 110, false}, // nodes 0 and 1
			{geo.Point{X: 215, Y: 400}, 50, true},  // nodes 2 and 3
			{geo.Point{X: 520, Y: 140}, 30, false}, // node 4 alone: nothing to sort
			{geo.Point{X: 465, Y: 150}, 50, true},  // nodes 4 and 5
			{geo.Point{X: 620, Y: -225}, 50, true}, // nodes 6 and 7
			{geo.Point{X: 200, Y: 90}, 110, false}, // nodes 0 and 1 again
		}
		for k, d := range discs {
			s.Schedule(float64(3*k+1), f.ch.RefreshGrid) // ages the grid: nobody moves, few hits
			s.Schedule(float64(3*k+2), func() {
				before := f.st
				check(t, f, d.center, d.radius, -1)
				if fell := f.st.fallbacks > before.fallbacks; fell != d.edge {
					t.Errorf("disc %d (%v, %v): fell back %v, want %v (%+v)", k, d.center, d.radius, fell, d.edge, f.st)
				}
				check(t, f, d.center, d.radius, -1) // again, on the fresh grid or the old one
			})
		}
		s.RunAll()
		if f.st.sorted == 0 {
			t.Errorf("no query sorted its hits: %+v", f.st)
		}
	})
}

// refNearest is the reference NearestNode is tested against: the scan it
// replaced, every node in id order, the first strictly nearer one kept.
func refNearest(c *Channel, p geo.Point) int {
	best, bestD := 0, math.Inf(1)
	for i := 0; i < c.N(); i++ {
		if d := c.PositionOf(i).Dist2(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// TestNearestNodeMatchesScan is NearestNode's oracle. Over every mobility
// family of the refresh test, with radios powering off and on, it must name
// the scan's node for points near a node, anywhere on the field and far
// outside it: before the first snapshot, at every age of a refreshed one, and
// under one left 90 s stale. It must never rebuild the snapshot. Static rows
// pin exact ties, which go to the lowest id wherever the window meets them,
// and a channel of one node.
func TestNearestNodeMatchesScan(t *testing.T) {
	far := []geo.Point{{X: 1e6, Y: -3e6}, {X: -4e4, Y: 1500}, {X: 1e300, Y: 1e300}, {X: math.Inf(1)}, {X: math.NaN()}}
	check := func(t *testing.T, ch *Channel, p geo.Point) {
		t.Helper()
		at, builtAt, built := ch.gridAt, ch.builtAt, ch.gridBuilt
		if got, want := ch.NearestNode(p), refNearest(ch, p); got != want {
			t.Fatalf("t=%v: NearestNode(%v) = %d, want %d", ch.sim.Now(), p, got, want)
		}
		if ch.gridAt != at || ch.builtAt != builtAt || ch.gridBuilt != built {
			t.Fatalf("t=%v: NearestNode(%v) rebuilt the snapshot", ch.sim.Now(), p)
		}
	}
	for _, pop := range refPopulations(t) {
		t.Run(pop.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Range = pop.txRange
			cfg.MaxSpeed = pop.vmax
			s := sim.New()
			ch, err := New(s, cfg, pop.models, func(int, Frame) {}, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			n := len(pop.models)
			r := rng.New(47)
			queries := 0
			step := func() {
				if s.Now() > 0 && s.Now() < 200 {
					ch.RefreshGrid() // then none: the snapshot ages up to 90 s
				}
				if err := ch.SetOnline(r.Intn(n), r.Bool(0.6)); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 8; k++ {
					near := ch.PositionOf(r.Intn(n)).Add(geo.Vec{X: r.Range(-40, 40), Y: r.Range(-40, 40)})
					check(t, ch, near)
					check(t, ch, geo.Point{X: r.Range(-1000, 4000), Y: r.Range(-1000, 4000)})
					queries += 2
				}
				for _, p := range far {
					check(t, ch, p)
				}
			}
			for at := 0.0; at < 290; at += r.Range(0.3, 1.9) {
				s.Schedule(at, step)
			}
			s.RunAll()
			if !ch.gridBuilt || s.Now()-ch.gridAt < 89 {
				t.Fatalf("last query %v s after the snapshot, want one 90 s stale", s.Now()-ch.gridAt)
			}
			if queries < 2000 {
				t.Fatalf("only %d queries compared", queries)
			}
		})
	}

	static := func(t *testing.T, pts ...geo.Point) *Channel {
		models := make([]mobility.Model, len(pts))
		for i, p := range pts {
			models[i] = mobility.NewStatic(p)
		}
		ch, err := New(sim.New(), DefaultConfig(), models, func(int, Frame) {}, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	t.Run("ties", func(t *testing.T) {
		// Nodes 1–5 are 10 m from the origin, a cell corner: node 4 at −x
		// is visited before 1 at +x, and 2 and 5 share one point. Nodes 6
		// and 0 are as far from (1950, −550), and 6's cell comes first.
		ch := static(t,
			geo.Point{X: 3000, Y: -2000}, geo.Point{X: 10}, geo.Point{X: 6, Y: 8}, geo.Point{Y: -10},
			geo.Point{X: -10}, geo.Point{X: 6, Y: 8}, geo.Point{X: 900, Y: 900})
		pts := []geo.Point{{}, {X: 6, Y: 8}, {X: 8.5, Y: 8.5}, {X: 0, Y: -0.001}, {X: 1950, Y: -550}}
		wants := []int{1, 2, 2, 3, 0}
		for _, at := range []float64{-1, 0} {
			if at == 0 {
				ch.RefreshGrid()
			}
			for k, p := range pts {
				check(t, ch, p)
				if got := ch.NearestNode(p); got != wants[k] {
					t.Errorf("snapshot %v: NearestNode(%v) = %d, want %d", at == 0, p, got, wants[k])
				}
			}
			for _, i := range []int{1, 2} { // offline nodes stay eligible
				_ = ch.SetOnline(i, false)
				check(t, ch, pts[0])
			}
			_ = ch.SetOnline(1, true)
			_ = ch.SetOnline(2, true)
		}
	})
	t.Run("one-node", func(t *testing.T) {
		ch := static(t, geo.Point{X: 40, Y: -7})
		ch.RefreshGrid()
		for _, p := range append(far, geo.Point{}, geo.Point{X: 40, Y: -7}) {
			check(t, ch, p)
		}
	})
}

// TestRefreshMatchesFullRebuild is the refresh's oracle: over 320 simulated
// seconds of every mobility family, at irregular instants, a refresh that
// builds the grid must leave exactly the grid the full rebuild computes from
// scratch, and one that does not must leave the grid alone; either way a
// query right after it must return the reference's ids in the reference's
// order at the snapshot instant, and every position and velocity query the
// model's own bits. radio_grid_rebuilds_total must count the builds. Busy
// spells (enough hits that every refresh builds) alternate with quiet ones (a
// query every few refreshes, so the grid is kept until its slack runs out or
// a query falls back): in a steady population both kinds of build run, the
// one a refresh after the last and the one after a kept grid.
func TestRefreshMatchesFullRebuild(t *testing.T) {
	for _, pop := range refPopulations(t) {
		t.Run(pop.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Range = pop.txRange
			cfg.MaxSpeed = pop.vmax
			s := sim.New()
			ch, err := New(s, cfg, pop.models, func(int, Frame) {}, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			ch.InstrumentWith(reg)
			rebuilds := reg.Counter("radio_grid_rebuilds_total", "")
			ref := newRefGrid(cfg, pop.models)
			n := len(pop.models)
			r := rng.New(41)

			var refreshes, builds, kept, next, spaced int
			builtLast := false // the last refresh built the grid, itself or by a query's fallback
			var st staleness
			step := func() {
				now := s.Now()
				ch.RefreshGrid()
				if ch.gridAt != now {
					return // not stale yet: nothing to compare
				}
				if ch.builtAt == now {
					builds++
					if builtLast {
						next++
					} else if builds > 1 {
						spaced++
					}
					if d := ref.eagerAt(ch).diff(ch); d != "" {
						t.Fatalf("t=%v: %s", now, d)
					}
					if doubled := ch.gridCell != cfg.Range; doubled != (pop.name == "sparse-doubled-cell") {
						t.Fatalf("t=%v: cell %v at range %v", now, ch.gridCell, cfg.Range)
					}
				} else {
					kept++
				}
				if got := rebuilds.Value(); got != uint64(builds) {
					t.Fatalf("t=%v: radio_grid_rebuilds_total %d, want %d", now, got, builds)
				}
				// Eight neighbourhoods a refresh in busy spells (40 s of
				// every 80), one every fourth refresh in quiet ones.
				queries := 8
				if int(now/40)%2 == 1 {
					queries = b2i(r.Bool(0.25))
				}
				for k := 0; k < queries; k++ {
					i := r.Intn(n)
					got := st.query(ch, rebuilds, nil, ch.PositionOf(i), ch.RangeOf(i), i)
					if rebuilds.Value() != uint64(builds) { // the query fell back to a build
						builds++
						if d := ref.eagerAt(ch).diff(ch); d != "" {
							t.Fatalf("t=%v: fallback: %s", now, d)
						}
					}
					if want := ref.eagerAt(ch).query(ch, nil, ch.PositionOf(i), ch.RangeOf(i), i); !slices.Equal(got, want) {
						t.Fatalf("t=%v (grid %v): neighbours of %d = %v, want %v", now, ch.builtAt, i, got, want)
					}
				}
				builtLast = ch.builtAt == now
				for i, m := range pop.models {
					for _, at := range []float64{now, now - 0.7, now + 0.4} {
						if got, want := ch.PositionAt(i, at), m.Position(at); got != want {
							t.Fatalf("t=%v: PositionAt(%d, %v) = %v, want %v", now, i, at, got, want)
						}
					}
					if got, want := ch.VelocityOf(i), m.Velocity(now); got != want {
						t.Fatalf("t=%v: VelocityOf(%d) = %v, want %v", now, i, got, want)
					}
				}
				refreshes++
			}
			// Irregular instants: a refresh fires only when the snapshot
			// is GridRefresh old, so steps of 0.3–1.9 s give ages of 1–2.8 s.
			for at := 0.0; at < 320; at += r.Range(0.3, 1.9) {
				s.Schedule(at, step)
			}
			s.RunAll()
			t.Logf("%d refreshes, %d kept the grid; %d builds: %d a refresh after the last, %d after a kept grid; queries %+v",
				refreshes, kept, builds, next, spaced, st)
			if refreshes < 150 {
				t.Fatalf("only %d refreshes compared", refreshes)
			}
			if ch.steady != (kept > 0) {
				t.Errorf("%d of %d refreshes kept the grid, steady %v", kept, refreshes, ch.steady)
			}
			if pop.steady && (next == 0 || pop.vmax > 0 && spaced == 0) {
				t.Errorf("%d builds a refresh after the last, %d after a kept grid: want both", next, spaced)
			}
		})
	}

	// Two corners 1024 cells apart fill maxGridCells to the last cell: a grid
	// built a moment later could need more, double its cell and order hits
	// otherwise, so every refresh builds. At 1016 cells there is room for any
	// slack, and refreshes keep the grid.
	for _, row := range []struct {
		cells int
		keep  bool
	}{{1024, false}, {1016, true}} {
		t.Run(fmt.Sprintf("field-of-%d-cells", row.cells), func(t *testing.T) {
			cfg := DefaultConfig()
			far := float64(row.cells-1)*cfg.Range + 100
			models := []mobility.Model{mobility.NewStatic(geo.Point{}), mobility.NewStatic(geo.Point{X: far, Y: far})}
			for i := 0; i < 100; i++ { // two hits a query, far under an eighth of the population
				models = append(models, mobility.NewStatic(geo.Point{X: 5000 + 40*float64(i%10), Y: 5000 + 40*float64(i/10)}))
			}
			s := sim.New()
			ch, err := New(s, cfg, models, func(int, Frame) {}, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			ch.InstrumentWith(reg)
			rebuilds := reg.Counter("radio_grid_rebuilds_total", "")
			ref := newRefGrid(cfg, models)
			const refreshes = 5
			for k := 0; k < refreshes; k++ {
				s.Schedule(float64(k), func() {
					center := geo.Point{X: 5100, Y: 5080}
					got := ch.AppendNodesWithin(nil, center, 25, -1)
					if want := ref.eagerAt(ch).query(ch, nil, center, 25, -1); len(got) < 2 || !slices.Equal(got, want) {
						t.Fatalf("t=%v: query = %v, want %v (and more than one hit)", s.Now(), got, want)
					}
				})
			}
			s.RunAll()
			if ch.gridCell != cfg.Range || ch.gridNX != row.cells || ch.gridNY != row.cells {
				t.Fatalf("grid of %d×%d cells of %v m, want %d×%d of %v m", ch.gridNX, ch.gridNY, ch.gridCell, row.cells, row.cells, cfg.Range)
			}
			want := uint64(refreshes)
			if row.keep {
				want = 1
			}
			if got := rebuilds.Value(); got != want {
				t.Errorf("%d builds in %d refreshes, want %d", got, refreshes, want)
			}
		})
	}
}
