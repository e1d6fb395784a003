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
	rebuilds   uint64
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
	g.rebuilds++
}

// diff reports the first difference between the channel's snapshot (and its
// count of rebuilds) and the reference's, or "".
func (g *refGrid) diff(c *Channel, rebuilds uint64) string {
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
	if rebuilds != g.rebuilds {
		return fmt.Sprintf("radio_grid_rebuilds_total %d, want %d", rebuilds, g.rebuilds)
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
	// steady: from the second refresh on, fewer than a quarter of the nodes
	// are evaluated per refresh (peers at ≤ 15 m/s take ≥ 8 s to cross a
	// cell). Populations that are due every time by design say false.
	steady bool
	// fullAgain: at least one refresh after the first must have fallen back
	// to evaluating everyone (geometry change, or a doubled cell).
	fullAgain bool
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
		// A walker reflecting off the field's far edge stands on it for an
		// instant, and the grid grows a column for as long as one does.
		{name: "random-walk", models: walk, txRange: 250, vmax: 15, steady: true, fullAgain: true},
		{name: "manhattan", models: manhattan, txRange: 250, vmax: 15, steady: true},
		{name: "road", models: road, txRange: 250, vmax: 15, steady: true},
		{name: "static", models: static, txRange: 250, vmax: 0, steady: true},
		{name: "rpgm", models: rpgm, txRange: 250, vmax: 14},
		{name: "ns2-trace-leaves-box", models: trace, txRange: 250, vmax: 15, fullAgain: true},
		{name: "sparse-doubled-cell", models: sparse, txRange: 50, vmax: 15, fullAgain: true},
	}
}

// refAppendWithin is the reference the query kernel (appendWithin) is tested
// against: the loop it replaced, one conditional append per candidate with
// the position through PositionAt. It reads the same snapshot, so kernel and
// reference must agree to the id and the order.
func refAppendWithin(c *Channel, dst []int, center geo.Point, radius float64, exclude int) []int {
	now := c.sim.Now()
	x0, x1, y0, y1 := c.window(center, radius)
	r2 := radius * radius
	for cx := x0; cx <= x1; cx++ {
		for _, j32 := range c.column(cx, y0, y1) {
			j := int(j32)
			if j == exclude || !c.Online(j) {
				continue
			}
			if c.PositionAt(j, now).Dist2(center) <= r2 {
				dst = append(dst, j)
			}
		}
	}
	return dst
}

// TestQueryMatchesReference is the query kernel's oracle. Over every mobility
// family of the refresh test, at irregular instants anywhere up to
// GridRefresh after a snapshot, with radios powering off and on and every
// fifth node a short-range handset, each query must return exactly the
// reference's ids in the reference's order after an untouched dst prefix —
// for neighbour queries and for discs of any radius and centre, excluding
// nobody, the querying node, or an id that is not there. The reference is
// itself checked against every model's own position, and the NS-2 trace must
// have queried nodes whose leg ended after the snapshot (the model path).
func TestQueryMatchesReference(t *testing.T) {
	prefix := []int{-3, -2, -1}
	check := func(t *testing.T, ch *Channel, models []mobility.Model, center geo.Point, radius float64, exclude int) {
		t.Helper()
		got := ch.AppendNodesWithin(slices.Clone(prefix), center, radius, exclude)
		want := refAppendWithin(ch, slices.Clone(prefix), center, radius, exclude)
		if !slices.Equal(got, want) {
			t.Fatalf("t=%v: query (%v, %v, exclude %d) = %v, want %v", ch.sim.Now(), center, radius, exclude, got, want)
		}
		var brute []int
		for j, m := range models {
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
			s := sim.New()
			ch, err := New(s, cfg, pop.models, func(int, Frame) {}, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			n := len(pop.models)
			for i := 0; i < n; i += 5 {
				if err := ch.SetNodeRange(i, 0.4*cfg.Range); err != nil {
					t.Fatal(err)
				}
			}
			r := rng.New(43)
			var queries, legEnded int
			step := func() {
				if err := ch.SetOnline(r.Intn(n), r.Bool(0.6)); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < 6; k++ {
					i := r.Intn(n)
					exclude := [...]int{-1, i, n}[k%3]
					check(t, ch, pop.models, ch.PositionOf(i), ch.RangeOf(i), exclude)
					center := ch.PositionOf(i).Add(geo.Vec{X: r.Range(-300, 300), Y: r.Range(-300, 300)})
					check(t, ch, pop.models, center, r.Range(0, 2*cfg.Range), exclude)
					got := ch.AppendNeighborsOf(slices.Clone(prefix), i)
					if want := refAppendWithin(ch, slices.Clone(prefix), ch.PositionOf(i), ch.RangeOf(i), i); !slices.Equal(got, want) {
						t.Fatalf("t=%v: AppendNeighborsOf(%d) = %v, want %v", s.Now(), i, got, want)
					}
					queries += 3
				}
				for j := range ch.pieces {
					if pc := &ch.pieces[j]; pc.T1 > ch.gridAt && pc.T1 <= s.Now() {
						legEnded++
					}
				}
			}
			// Steps of 0.05–0.6 s: a query lands at every age of the
			// snapshot, which only a query GridRefresh after it replaces.
			for at := 0.0; at < 320; at += r.Range(0.05, 0.6) {
				s.Schedule(at, step)
			}
			s.RunAll()
			if queries < 5000 {
				t.Fatalf("only %d queries compared", queries)
			}
			if pop.name == "ns2-trace-leaves-box" && legEnded == 0 {
				t.Errorf("no node's leg ended between a snapshot and a query: the model path went untested")
			}
		})
	}

	// A node exactly on the circle is in range: Dist2 == r² is a hit.
	t.Run("on-the-circle", func(t *testing.T) {
		pts := []geo.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: -5, Y: 0}, {X: 0, Y: math.Nextafter(5, 6)}, {X: 4, Y: -3}}
		models := make([]mobility.Model, len(pts))
		for i, p := range pts {
			models[i] = mobility.NewStatic(p)
		}
		ch, err := New(sim.New(), DefaultConfig(), models, func(int, Frame) {}, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, exclude := range []int{-1, 0, len(pts)} {
			check(t, ch, models, geo.Point{}, 5, exclude)
		}
		got := ch.AppendNodesWithin(nil, geo.Point{}, 5, -1)
		if slices.Sort(got); !slices.Equal(got, []int{0, 1, 2, 4}) {
			t.Fatalf("disc of radius 5 = %v, want [0 1 2 4]", got)
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
		at, built := ch.gridAt, ch.gridBuilt
		if got, want := ch.NearestNode(p), refNearest(ch, p); got != want {
			t.Fatalf("t=%v: NearestNode(%v) = %d, want %d", ch.sim.Now(), p, got, want)
		}
		if ch.gridAt != at || ch.gridBuilt != built {
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
// seconds of every mobility family, at irregular instants, the kinetic
// refresh must leave exactly the snapshot and rebuild count the full rebuild
// computes from scratch, and every position and velocity query must return
// the model's own bits. The evaluation counter
// shows the refresh is what it claims: everyone once, then only who moved.
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
			evaluated := reg.Counter("radio_grid_nodes_reevaluated_total", "")
			rebuilds := reg.Counter("radio_grid_rebuilds_total", "")
			ref := newRefGrid(cfg, pop.models)
			n := len(pop.models)

			var refreshes, full int
			step := func() {
				now := s.Now()
				before := evaluated.Value()
				ch.RefreshGrid()
				if ch.gridAt != now {
					return // not stale yet: nothing to compare
				}
				ref.rebuild(now)
				if d := ref.diff(ch, rebuilds.Value()); d != "" {
					t.Fatalf("t=%v: %s", now, d)
				}
				if doubled := ch.GridCellSize() != cfg.Range; doubled != (pop.name == "sparse-doubled-cell") {
					t.Fatalf("t=%v: cell %v at range %v", now, ch.GridCellSize(), cfg.Range)
				}
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
				did := int(evaluated.Value() - before)
				switch {
				case refreshes == 0 && did != n:
					t.Fatalf("first refresh evaluated %d of %d nodes", did, n)
				case did == n:
					full++
				case pop.steady && did >= n/4:
					t.Fatalf("t=%v: refresh evaluated %d of %d nodes, want < %d", now, did, n, n/4)
				}
				refreshes++
			}
			// Irregular instants: a refresh fires only when the snapshot
			// is GridRefresh old, so steps of 0.3–1.9 s give ages of 1–2.8 s.
			r := rng.New(41)
			for at := 0.0; at < 320; at += r.Range(0.3, 1.9) {
				s.Schedule(at, step)
			}
			s.RunAll()
			if refreshes < 150 {
				t.Fatalf("only %d refreshes compared", refreshes)
			}
			if pop.steady && !pop.fullAgain && full != 1 {
				t.Errorf("%d of %d refreshes evaluated everyone, want only the first", full, refreshes)
			}
			if pop.fullAgain && full < 2 {
				t.Errorf("no refresh after the first fell back to evaluating everyone")
			}
			if pop.name == "rpgm" && full != refreshes {
				t.Errorf("%d of %d refreshes evaluated every RPGM member, want all", full, refreshes)
			}
		})
	}
}
