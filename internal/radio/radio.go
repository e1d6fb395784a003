// Package radio models the short-range broadcast wireless channel that the
// paper's peers communicate over (IEEE 802.11 / Bluetooth class links in
// NS-2). It replaces the NS-2 PHY/MAC with the abstractions the advertising
// protocols actually depend on:
//
//   - unit-disk connectivity: a broadcast by node i is heard by every node
//     within transmission range Range of i's position at transmit time;
//   - per-frame latency: contention backoff jitter plus serialization time
//     (frame bytes / bitrate) plus a fixed propagation/processing delay;
//   - optional impairments for ablations: independent per-link frame loss,
//     and a receiver-side collision model in which two frames whose airtimes
//     overlap at a common receiver destroy each other.
//
// Node positions come from analytic mobility models; a flat dense cell grid
// over the nodes' bounding box, with a motion-slack margin, makes neighbor
// queries cheap without sacrificing exactness (candidates from the grid are
// re-filtered against exact positions).
//
// The broadcast→deliver pipeline is allocation-free in steady state: the
// grid is a reusable CSR-style bucket array, neighbor queries append into a
// caller-provided scratch slice, each broadcast schedules a single pooled
// simulator event carrying the surviving receiver list, and a position is
// read off the node's constant-velocity piece (one dense table, written
// only by a grid refresh) rather than by searching its mobility model.
package radio

import (
	"fmt"
	"math"
	"slices"
	"time"

	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// Config parameterizes the channel.
type Config struct {
	// Range is the transmission range in meters (unit-disk model). The paper
	// uses the NS-2 802.11 default of 250 m.
	Range float64
	// BitrateBps is the link serialization rate in bits/s (802.11b ≈ 2e6 for
	// broadcast frames). Zero disables serialization delay.
	BitrateBps float64
	// BaseLatency is a fixed per-frame propagation+processing delay, seconds.
	BaseLatency float64
	// JitterMax is the maximum sender-side random access delay (CSMA backoff
	// proxy), seconds. The actual delay is uniform in [0, JitterMax).
	JitterMax float64
	// LossRate is an independent per-link frame loss probability in [0, 1).
	LossRate float64
	// FadeZone softens the unit disk's edge: receivers within
	// [Range−FadeZone, Range] hear a frame with probability falling linearly
	// from 1 to 0 across the zone — the "gray zone" real radios exhibit.
	// Zero keeps the hard disk.
	FadeZone float64
	// Collisions enables the receiver-side collision model.
	Collisions bool
	// Energy configures radio energy accounting (disabled by default).
	Energy EnergyConfig
	// GridRefresh is how often, in seconds, the snapshot instant moves: the
	// instant that fixes the order queries return hits in. The grid itself is
	// built only when a refresh cannot keep the last one (see RefreshGrid).
	GridRefresh float64
	// MaxSpeed bounds node speed. Queries widen the candidate search by the
	// distance nodes can travel at it since the grid was last built, so
	// results remain exact.
	MaxSpeed float64
	// Shards is validated and otherwise unused.
	//
	// Deprecated: ignored. It selected the tile-stripe count of an engine
	// that is gone; the field remains until bench/ stops setting it.
	Shards int
}

// DefaultConfig returns the canonical channel used in the experiments:
// 250 m range, 2 Mb/s, 1 ms base latency, 5 ms max jitter, no impairments.
func DefaultConfig() Config {
	return Config{
		Range:       250,
		BitrateBps:  2e6,
		BaseLatency: 1e-3,
		JitterMax:   5e-3,
		GridRefresh: 1.0,
		MaxSpeed:    15,
	}
}

// validate states every accepted range in the positive form: every comparison
// with NaN is false, so a guard written `x <= 0` lets NaN through.
func (c Config) validate() error {
	if !(c.Range > 0 && finiteNonNeg(c.Range)) {
		return fmt.Errorf("radio: range %v not positive and finite", c.Range)
	}
	if !(c.LossRate >= 0 && c.LossRate < 1) {
		return fmt.Errorf("radio: loss rate %v outside [0,1)", c.LossRate)
	}
	if !(c.GridRefresh > 0 && finiteNonNeg(c.GridRefresh)) {
		return fmt.Errorf("radio: grid refresh %v not positive and finite", c.GridRefresh)
	}
	if !finiteNonNeg(c.MaxSpeed) {
		return fmt.Errorf("radio: max speed %v not finite and non-negative", c.MaxSpeed)
	}
	if !(finiteNonNeg(c.BaseLatency) && finiteNonNeg(c.JitterMax) && finiteNonNeg(c.BitrateBps)) {
		return fmt.Errorf("radio: delay parameter not finite and non-negative")
	}
	if !(c.FadeZone >= 0 && c.FadeZone < c.Range) {
		return fmt.Errorf("radio: fade zone %v outside [0, range)", c.FadeZone)
	}
	if c.Shards < 0 || c.Shards > 4096 {
		return fmt.Errorf("radio: shard count %d outside [0, 4096]", c.Shards)
	}
	return c.Energy.validate()
}

// finiteNonNeg reports x ∈ [0, +Inf).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Frame is one broadcast transmission. Payload is opaque to the channel;
// Bytes is the wire size used for serialization delay and traffic accounting.
type Frame struct {
	From    int
	Payload any
	Bytes   int
}

// DeliverFunc is invoked once per (frame, receiver) when the frame arrives.
type DeliverFunc func(to int, f Frame)

// Stats counts channel activity for the experiment metrics.
type Stats struct {
	Broadcasts uint64  // frames transmitted
	Deliveries uint64  // (frame, receiver) arrivals handed to the protocol
	Lost       uint64  // (frame, receiver) pairs dropped by random loss
	Faded      uint64  // (frame, receiver) pairs dropped in the fade zone
	Collided   uint64  // (frame, receiver) pairs destroyed by collisions
	BytesSent  uint64  // sum of frame sizes over broadcasts
	AirtimeSec float64 // summed frame serialization time across broadcasts
}

// Channel is the broadcast medium shared by all nodes.
type Channel struct {
	cfg     Config
	sim     *sim.Simulator
	models  []mobility.Model
	deliver DeliverFunc
	rnd     *rng.Stream
	stats   Stats

	// Per-node transmission ranges; nil means every node uses cfg.Range.
	// Supports mixed device classes (vehicular radios vs handsets).
	nodeRange []float64
	maxRange  float64

	// offline marks powered-down radios: they neither transmit nor receive.
	// nil means everyone is online.
	offline []bool

	// The spatial snapshot has two instants. gridAt, the last refresh, fixes
	// the order queries return hits in: the order a grid built then would
	// give (see sortByCell). builtAt ≤ gridAt is when the grid below was last
	// built in full: nodes bucketed by cell in a CSR layout over the bounding
	// box of the positions then, the candidate index every query reads with a
	// slack for the time since. served counts the hits queries returned since
	// then. All buffers are reused across rebuilds.
	cellSize           float64 // configured cell edge (= cfg.Range)
	gridAt, builtAt    float64
	gridBuilt          bool
	served             int
	gridCell           float64 // effective cell edge of this snapshot
	gridMinX, gridMinY float64 // grid origin, aligned to gridCell multiples
	gridLX, gridLY     int32   // the origin in lattice coordinates: gridMin / gridCell
	gridNX, gridNY     int
	edgeTol            float64 // in cells: how near an edge rounding may blur a cell (see sortByCell)
	cellStart          []int32 // len gridNX*gridNY+1; bucket bounds in cellNodes
	cellNodes          []int32 // node ids bucketed by cell, ascending per cell

	// pieces holds each node's constant-velocity piece in force, which every
	// position query reads and only a build writes; buildPos is a build's
	// scratch, every node's position at builtAt. steady says the geometry
	// built permits keeping the grid (see keepIndex).
	pieces   []mobility.Piece
	buildPos []geo.Point
	steady   bool

	// Broadcast scratch, the query's hit and sort-key scratch (see
	// appendWithin) and the pooled per-frame delivery batches.
	nbrScratch   []int
	queryScratch []int
	keyScratch   []uint64
	batchFree    []*deliveryBatch

	// Per-receiver in-flight receptions; nil without the collision model.
	inflight [][]*reception
	recFree  []*reception

	ins *radioInstruments // nil when uninstrumented (see InstrumentWith)

	// Energy accounting (see energy.go).
	energyTx, energyRx float64
	energyPerNode      []float64
}

type reception struct {
	start, end float64
	corrupted  bool
}

// deliveryBatch carries one frame's surviving receivers from transmit time
// to arrival time as a single pooled simulator event, instead of one
// closure+event per (frame, receiver) pair.
type deliveryBatch struct {
	ch   *Channel
	f    Frame
	recv []int
	recs []*reception // parallel to recv; non-empty only under collisions
	fire func()       // pre-bound b.deliverAll, created once per batch
}

// New creates a channel over the given per-node mobility models. deliver is
// called for every successful (frame, receiver) arrival; it must not be nil.
func New(s *sim.Simulator, cfg Config, models []mobility.Model, deliver DeliverFunc, rnd *rng.Stream) (*Channel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if deliver == nil {
		return nil, fmt.Errorf("radio: nil deliver callback")
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("radio: no nodes")
	}
	c := &Channel{
		cfg:      cfg,
		sim:      s,
		models:   models,
		deliver:  deliver,
		rnd:      rnd,
		maxRange: cfg.Range,
		cellSize: cfg.Range,
		pieces:   make([]mobility.Piece, len(models)),
	}
	if cfg.Collisions {
		c.inflight = make([][]*reception, len(models))
	}
	if cfg.Energy.Enabled {
		c.energyPerNode = make([]float64, len(models))
	}
	return c, nil
}

// SetNodeRange overrides node i's transmission range (e.g. a pedestrian
// handset with a shorter reach than the default vehicular radio). It must be
// called before the simulation runs. Reception follows the sender's range:
// a long-range sender reaches a short-range node, but not vice versa.
func (c *Channel) SetNodeRange(i int, r float64) error {
	if i < 0 || i >= len(c.models) {
		return fmt.Errorf("radio: unknown node %d", i)
	}
	if !(r > 0 && finiteNonNeg(r)) {
		return fmt.Errorf("radio: range %v not positive and finite", r)
	}
	if c.nodeRange == nil {
		c.nodeRange = make([]float64, len(c.models))
		for j := range c.nodeRange {
			c.nodeRange[j] = c.cfg.Range
		}
	}
	c.nodeRange[i] = r
	if r > c.maxRange {
		c.maxRange = r
	}
	return nil
}

// RangeOf returns node i's transmission range.
func (c *Channel) RangeOf(i int) float64 {
	if c.nodeRange == nil {
		return c.cfg.Range
	}
	return c.nodeRange[i]
}

// SetOnline powers node i's radio on or off. An offline node neither hears
// broadcasts nor reaches anyone; the paper's "issuer … then go off-line" is
// exactly this. Frames already in flight toward a node that just went
// offline are dropped at arrival.
func (c *Channel) SetOnline(i int, on bool) error {
	if i < 0 || i >= len(c.models) {
		return fmt.Errorf("radio: unknown node %d", i)
	}
	if c.offline == nil {
		if on {
			return nil
		}
		c.offline = make([]bool, len(c.models))
	}
	c.offline[i] = !on
	return nil
}

// Online reports whether node i's radio is powered.
func (c *Channel) Online(i int) bool {
	return c.offline == nil || !c.offline[i]
}

// N returns the number of nodes on the channel.
func (c *Channel) N() int { return len(c.models) }

// Stats returns a copy of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// PositionOf returns node i's exact position at the current simulation time.
func (c *Channel) PositionOf(i int) geo.Point { return c.PositionAt(i, c.sim.Now()) }

// PositionAt returns node i's exact position at an arbitrary time: off the
// node's piece when that covers t, which is the model's own expression on the
// model's own operands, else from the model. It reads and never writes.
func (c *Channel) PositionAt(i int, t float64) geo.Point {
	if pc := &c.pieces[i]; pc.Covers(t) {
		return pc.At(t)
	}
	return c.models[i].Position(t)
}

// VelocityOf returns node i's exact velocity at the current simulation time.
func (c *Channel) VelocityOf(i int) geo.Vec {
	now := c.sim.Now()
	if pc := &c.pieces[i]; pc.Covers(now) {
		return pc.Vel()
	}
	return c.models[i].Velocity(now)
}

// maxGridCells bounds the dense cell array. Fields vastly larger than the
// population (e.g. far-flung trace files) double the effective cell size
// until the array fits, trading a wider candidate window for bounded memory.
const maxGridCells = 1 << 20

// latticeInt converts a lattice coordinate, saturating rather than wrapping
// for an origin absurdly far out (such a grid is not steady; see
// chooseGeometry).
func latticeInt(f float64) int32 {
	return int32(max(math.MinInt32, min(int64(f), math.MaxInt32)))
}

// rebuildGrid builds the CSR snapshot at instant at (the refresh instant or,
// from a query's fallback, the last one): a counting sort of node ids into
// dense cells over the bounding box of the positions then. It evaluates every
// node once, into buildPos, folding the box; chooses the geometry from the
// box; then counts each node into its dense cell int((p−origin)/cell),
// prefix-sums and places. All buffers are reused, so a build is
// allocation-free after the first.
func (c *Channel) rebuildGrid(at float64) {
	var start time.Time
	if c.ins != nil {
		start = time.Now()
	}
	if c.buildPos == nil {
		c.buildPos = make([]geo.Point, len(c.models))
		c.cellNodes = make([]int32, len(c.models))
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range c.buildPos {
		p := c.pieceAt(i, at)
		c.buildPos[i] = p
		minX, minY = min(minX, p.X), min(minY, p.Y)
		maxX, maxY = max(maxX, p.X), max(maxY, p.Y)
	}
	c.chooseGeometry(minX, minY, maxX, maxY)
	clear(c.cellStart)
	for _, p := range c.buildPos {
		c.cellStart[c.denseCell(p)+1]++
	}
	ncells := c.gridNX * c.gridNY
	for i := 1; i <= ncells; i++ {
		c.cellStart[i] += c.cellStart[i-1]
	}
	// cellStart[cell+1] counted the bucket, so after the prefix sum
	// cellStart[cell] is where it begins; place with that as the running
	// cursor (ascending node id within each cell, matching the insertion
	// order of the old map grid).
	for i, p := range c.buildPos {
		cell := c.denseCell(p)
		c.cellNodes[c.cellStart[cell]] = int32(i)
		c.cellStart[cell]++
	}
	// Each cursor has advanced to its bucket's end == the next bucket's
	// start; shift right to restore start offsets.
	copy(c.cellStart[1:], c.cellStart[:ncells])
	c.cellStart[0] = 0
	c.gridAt, c.builtAt, c.served = at, at, 0
	c.gridBuilt = true

	if c.ins != nil {
		c.ins.rebuilds.Inc()
		c.ins.rebuildSec.Observe(time.Since(start).Seconds())
	}
}

// denseCell is the x-major index of the snapshot cell holding p, a position
// inside the bounding box the geometry was chosen from.
func (c *Channel) denseCell(p geo.Point) int {
	cs := c.gridCell
	return int((p.X-c.gridMinX)/cs)*c.gridNY + int((p.Y-c.gridMinY)/cs)
}

// chooseGeometry picks cell size, origin and extent for the bounding box
// [minX, maxX] × [minY, maxY] and sizes cellStart for them.
func (c *Channel) chooseGeometry(minX, minY, maxX, maxY float64) {
	// Align the origin to cell-size multiples so bucket boundaries are
	// independent of the bounding box (queries then visit nodes in the same
	// order regardless of how the population drifts).
	n := len(c.models)
	cs := c.cellSize
	var lx, ly float64
	var nx, ny int
	for {
		lx, ly = math.Floor(minX/cs), math.Floor(minY/cs)
		nx = int(math.Floor((maxX-cs*lx)/cs)) + 1
		ny = int(math.Floor((maxY-cs*ly)/cs)) + 1
		if nx*ny <= maxGridCells || nx*ny <= 4*n {
			break
		}
		cs *= 2
	}
	c.gridCell = cs
	c.gridMinX, c.gridMinY = cs*lx, cs*ly
	c.gridLX, c.gridLY = latticeInt(lx), latticeInt(ly)
	c.gridNX, c.gridNY = nx, ny
	// sortByCell ranks hits by int32 lattice coordinates against this
	// origin, so a kept grid is only good where those cannot saturate.
	const far = 1 << 30
	c.steady = cs == c.cellSize && math.Abs(lx) < far && math.Abs(ly) < far
	// Everyone a later query can hit lies within boxPad cells of this box
	// (see keepIndex), and so does any later origin; rounding errs by a few
	// ulps of those lattice coordinates.
	c.edgeTol = (max(math.Abs(lx), math.Abs(ly), math.Abs(lx+float64(nx)), math.Abs(ly+float64(ny))) + boxPad) * 0x1p-40
	ncells := nx * ny
	if cap(c.cellStart) < ncells+1 {
		c.cellStart = make([]int32, ncells+1)
	}
	c.cellStart = c.cellStart[:ncells+1]
}

// pieceAt returns node i's position at now, first replacing a piece that no
// longer covers now. Only a build may call it: it is the one writer of the
// piece table.
func (c *Channel) pieceAt(i int, now float64) geo.Point {
	pc := &c.pieces[i]
	if !pc.Covers(now) {
		if src, ok := c.models[i].(mobility.PieceSource); ok {
			*pc = src.PieceAt(now)
		}
		if !pc.Covers(now) {
			return c.models[i].Position(now)
		}
	}
	return pc.At(now)
}

// AppendNeighborsOf appends every node j ≠ i within node i's transmission
// range at the current simulation time to dst and returns the extended slice,
// allocating only when dst lacks capacity. The result is exact: the grid
// snapshot only pre-filters candidates, with a slack margin covering motion
// since it was built.
func (c *Channel) AppendNeighborsOf(dst []int, i int) []int {
	return c.AppendNodesWithin(dst, c.PositionOf(i), c.RangeOf(i), i)
}

// AppendNodesWithin appends every node within radius of center at the current
// simulation time to dst, excluding node exclude (pass a negative value to
// exclude nobody), allocation-free once dst has room. Results are ordered by
// snapshot cell (x-major) and ascending node id within a cell.
func (c *Channel) AppendNodesWithin(dst []int, center geo.Point, radius float64, exclude int) []int {
	c.RefreshGrid()
	return c.appendWithin(dst, center, radius, exclude)
}

// appendWithin is the query against the snapshot as it stands: it writes
// nothing but the query scratch, unless it falls back to a rebuild (below).
// It runs one branch-free kernel per window column: every candidate of the
// column's CSR run is written to the scratch, and a hit moves the write cursor
// on by 0 or 1, so no branch depends on whether a candidate is in range (about
// a third are, the worst case for a predictor). The hits then go to dst in one
// append, which grows dst by hits only. A position is PositionAt's: the
// piece's expression read inline, the model's when no piece covers now.
//
// The order is the snapshot's at gridAt — cell x-major, ascending id within a
// cell. Hits come off the grid in that order when it was built at gridAt, and
// are sorted into it otherwise (sortByCell); where rounding could tell the
// sort's cells from the snapshot's, the grid is built at gridAt after all and
// the query runs again.
func (c *Channel) appendWithin(dst []int, center geo.Point, radius float64, exclude int) []int {
	now := c.sim.Now()
	x0, x1, y0, y1 := c.window(center, radius)
	r2 := radius * radius
	offline := c.offline
	hits, n := c.queryScratch, 0
	for cx := x0; cx <= x1; cx++ {
		col := c.column(cx, y0, y1)
		if len(hits) < n+len(col) {
			hits = append(hits[:n], make([]int, len(col))...)
			hits = hits[:cap(hits)]
		}
		for _, j32 := range col {
			j := int(j32)
			var p geo.Point
			if pc := &c.pieces[j]; pc.Covers(now) {
				p = pc.At(now)
			} else {
				p = c.models[j].Position(now)
			}
			hit := b2i(p.Dist2(center) <= r2) & b2i(j != exclude)
			if offline != nil {
				hit &= b2i(!offline[j])
			}
			hits[n] = j
			n += hit
		}
	}
	c.queryScratch = hits
	if n > 1 && c.builtAt != c.gridAt && !c.sortByCell(hits[:n]) {
		c.rebuildGrid(c.gridAt)
		return c.appendWithin(dst, center, radius, exclude)
	}
	c.served += n
	return append(dst, hits[:n]...)
}

// sortByCell sorts hits into the order of a grid built at gridAt, from each
// hit's lattice cell floor(p/cell) at gridAt. That grid buckets by dense cell
// int((p−origin)/cell), with the origin a lattice point, so for nodes off any
// cell edge dense cells are lattice cells less the origin, whatever the origin
// is: lattice order is its order. Within edgeTol of an edge rounding could
// part the two, and sortByCell reports false with hits unsorted. keepIndex
// has proved that grid's cell is this one.
//
// A key is the cell's x-major rank in the built grid's box grown by boxPad,
// where every node is at gridAt, then the id: one integer, so the sort
// compares without a call. The rank is below the grown box's cell count,
// which keepIndex holds to maxGridCells or 4N, under 2³³; ids are below 2³¹.
func (c *Channel) sortByCell(hits []int) bool {
	keys := c.keyScratch[:0]
	cs, tol := c.gridCell, c.edgeTol
	ox, oy := float64(c.gridLX)-boxPad, float64(c.gridLY)-boxPad
	ny := float64(c.gridNY + 2*boxPad)
	for _, j := range hits {
		p := c.PositionAt(j, c.gridAt)
		qx, qy := p.X/cs, p.Y/cs
		lx, ly := math.Floor(qx), math.Floor(qy)
		if !(qx-lx > tol && qx-lx < 1-tol && qy-ly > tol && qy-ly < 1-tol) {
			c.keyScratch = keys
			return false
		}
		keys = append(keys, uint64((lx-ox)*ny+ly-oy)<<31|uint64(j))
	}
	slices.Sort(keys)
	for k, key := range keys {
		hits[k] = int(key & (1<<31 - 1))
	}
	c.keyScratch = keys
	return true
}

// b2i is 1 for true and 0 for false; the compiler emits it without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// reachEps pads the window's reach, in meters, so that rounding in the reach
// itself can never drop a node moving at exactly MaxSpeed.
const reachEps = 1e-6

// window returns the snapshot's cell columns x0..x1 and rows y0..y1 that a
// disc of the given radius around center can touch now. A node whose position
// when the grid was built was d away may by now be anywhere in d ± slack,
// slack being MaxSpeed times the grid's age, so the disc is widened by that
// much and callers confirm candidates against exact positions. The window is
// clamped to the grid; one that misses it has x0 > x1. It needs a built
// snapshot and never rebuilds it.
func (c *Channel) window(center geo.Point, radius float64) (x0, x1, y0, y1 int) {
	reach := radius + c.cfg.MaxSpeed*(c.sim.Now()-c.builtAt) + reachEps
	cs := c.gridCell
	x0 = max(int(math.Floor((center.X-reach-c.gridMinX)/cs)), 0)
	x1 = min(int(math.Floor((center.X+reach-c.gridMinX)/cs)), c.gridNX-1)
	y0 = max(int(math.Floor((center.Y-reach-c.gridMinY)/cs)), 0)
	y1 = min(int(math.Floor((center.Y+reach-c.gridMinY)/cs)), c.gridNY-1)
	if y0 > y1 {
		x1 = x0 - 1
	}
	return x0, x1, y0, y1
}

// column returns the snapshot's node ids in cell column cx, rows y0..y1: the
// CSR arena is x-major, so those cells are one contiguous run, ordered by
// cell and ascending node id within a cell.
func (c *Channel) column(cx, y0, y1 int) []int32 {
	base := cx * c.gridNY
	return c.cellNodes[c.cellStart[base+y0]:c.cellStart[base+y1+1]]
}

// AppendSnapshotCandidates appends every node, online or not, whose snapshot
// cell a disc of the given radius around center can touch now (see window):
// a superset of the nodes currently inside the disc, in no useful order and
// unconfirmed against exact positions. It only reads the snapshot — a stale
// one widens the window, it is never rebuilt, so an observer calling this
// cannot move the snapshot instant and with it the receiver order that feeds
// the channel's loss draws. Before the first snapshot every node is a
// candidate.
func (c *Channel) AppendSnapshotCandidates(dst []int32, center geo.Point, radius float64) []int32 {
	if !c.gridBuilt {
		for i := range c.models {
			dst = append(dst, int32(i))
		}
		return dst
	}
	x0, x1, y0, y1 := c.window(center, radius)
	for cx := x0; cx <= x1; cx++ {
		dst = append(dst, c.column(cx, y0, y1)...)
	}
	return dst
}

// NearestNode returns the node closest to p now, online or not, the lowest id
// among equals. It walks AppendSnapshotCandidates' window for a radius of one
// cell, doubling the radius until the nearest node in the window is within it,
// so that nobody outside can be as near, or until the window spans the grid.
// Like that window it only reads the snapshot; before the first one, or for a
// p no window holds, every node is scanned.
func (c *Channel) NearestNode(p geo.Point) int {
	now := c.sim.Now()
	best, bestD := 0, math.Inf(1)
	consider := func(j int) {
		if d := c.PositionAt(j, now).Dist2(p); d < bestD || d == bestD && j < best {
			best, bestD = j, d
		}
	}
	for r := c.gridCell; c.gridBuilt && !math.IsInf(r, 1); r *= 2 {
		x0, x1, y0, y1 := c.window(p, r)
		for cx := x0; cx <= x1; cx++ {
			for _, j := range c.column(cx, y0, y1) {
				consider(int(j))
			}
		}
		if bestD <= r*r || x0 == 0 && x1 == c.gridNX-1 && y0 == 0 && y1 == c.gridNY-1 {
			return best
		}
	}
	for j := range c.models {
		consider(j)
	}
	return best
}

// RefreshGrid moves the snapshot instant to now if the snapshot is stale,
// using exactly the staleness rule queries apply, and builds the grid unless
// keepIndex shows the last one may stand in. The simulator's batch-prepare
// hook calls it, which pins the snapshot instant — and therefore the receiver
// order feeding the channel's shared RNG draws — to the batch boundary,
// independent of which query happens to run first.
func (c *Channel) RefreshGrid() {
	now := c.sim.Now()
	if c.gridBuilt && now-c.gridAt < c.cfg.GridRefresh {
		return
	}
	slack := c.cfg.MaxSpeed * (now - c.builtAt) / c.gridCell
	if c.keepIndex(slack) {
		c.gridAt = now
		return
	}
	c.rebuildGrid(now)
}

// maxSlack is how far, in cells, nodes may have moved since the grid was
// built before a refresh builds it again: the windows queries read widen by
// up to that much.
const maxSlack = 1

// boxPad is how many cells beyond the built grid's box a node can lie at a
// later snapshot instant while the grid is kept: maxSlack, and one for the
// cell the box's edge cuts, and one for rounding.
const boxPad = maxSlack + 2

// keepIndex reports whether queries may keep reading the grid built at
// builtAt when nodes may have moved slack cells since: it is steady, slack is
// within maxSlack, a grid built now would not double its cell (its box is this
// one grown by the slack on each side), and queries have returned fewer hits
// since than an eighth of the population, which is about what a build costs
// against sorting them.
func (c *Channel) keepIndex(slack float64) bool {
	n := len(c.models)
	if !c.gridBuilt || !c.steady || 8*c.served >= n || !(slack <= maxSlack) {
		return false
	}
	nx, ny := c.gridNX+2*boxPad, c.gridNY+2*boxPad
	return nx*ny <= maxGridCells || nx*ny <= 4*n
}

// radioInstruments are the channel's registry instruments.
type radioInstruments struct {
	rebuilds   *obs.Counter
	rebuildSec *obs.Histogram
}

// InstrumentWith attaches radio_* metrics to reg: grid build counts and
// wall-clock timings. Pass nil to detach. Instruments never influence event
// order; instrumented and bare runs stay bit-identical.
func (c *Channel) InstrumentWith(reg *obs.Registry) {
	if reg == nil {
		c.ins = nil
		return
	}
	c.ins = &radioInstruments{
		rebuilds: reg.Counter("radio_grid_rebuilds_total",
			"spatial grid builds (a refresh that keeps the last grid is none)"),
		rebuildSec: reg.Histogram("radio_grid_rebuild_seconds",
			"wall-clock time of one grid build",
			obs.ExpBuckets(1e-6, 4, 12)),
	}
}

// airtime returns the serialization delay for a frame of the given size.
func (c *Channel) airtime(bytes int) float64 {
	if c.cfg.BitrateBps <= 0 {
		return 0
	}
	return float64(bytes*8) / c.cfg.BitrateBps
}

// Broadcast transmits f from node f.From at the current simulation time. All
// nodes within range at transmit start hear the frame after the access
// jitter, airtime and base latency, unless lost or collided.
func (c *Channel) Broadcast(f Frame) {
	if f.From < 0 || f.From >= len(c.models) {
		panic(fmt.Sprintf("radio: broadcast from unknown node %d", f.From))
	}
	if !c.Online(f.From) {
		return // a powered-down radio cannot transmit
	}
	// The neighbor query consumes no randomness, so running it before the
	// jitter draw leaves the channel's RNG stream unchanged.
	c.nbrScratch = c.AppendNeighborsOf(c.nbrScratch[:0], f.From)
	c.transmit(f, c.nbrScratch)
}

// BroadcastTo transmits f to a pre-computed receiver list instead of querying
// neighbors at transmit time — for a sender that already ran the query
// (AppendNeighborsOf at this same instant) or addresses one receiver. recv
// must hold nodes in range of the sender, in channel query order; the channel
// applies the same jitter, loss, fade and collision treatment as Broadcast,
// drawing from the shared stream in the same order.
func (c *Channel) BroadcastTo(f Frame, recv []int) {
	if f.From < 0 || f.From >= len(c.models) {
		panic(fmt.Sprintf("radio: broadcast from unknown node %d", f.From))
	}
	if !c.Online(f.From) {
		return // a powered-down radio cannot transmit
	}
	c.transmit(f, recv)
}

// transmit applies the sender-side accounting and per-receiver impairment
// draws for one frame and schedules its delivery batch. recv is read, not
// retained.
func (c *Channel) transmit(f Frame, recv []int) {
	c.stats.Broadcasts++
	c.stats.BytesSent += uint64(f.Bytes)
	c.stats.AirtimeSec += c.airtime(f.Bytes)
	c.chargeTx(f.From, f.Bytes)

	jitter := 0.0
	if c.cfg.JitterMax > 0 && c.rnd != nil {
		jitter = c.rnd.Range(0, c.cfg.JitterMax)
	}
	start := c.sim.Now() + jitter
	end := start + c.airtime(f.Bytes)
	arrive := end + c.cfg.BaseLatency

	var senderPos geo.Point
	if c.cfg.FadeZone > 0 {
		senderPos = c.PositionOf(f.From)
	}
	b := c.getBatch()
	b.f = f
	for _, j := range recv {
		// The receiver's radio front-end pays for every frame that reaches
		// it, even ones subsequently lost, faded or collided.
		c.chargeRx(j, f.Bytes)
		if c.cfg.LossRate > 0 && c.rnd != nil && c.rnd.Bool(c.cfg.LossRate) {
			c.stats.Lost++
			continue
		}
		if c.cfg.FadeZone > 0 && c.rnd != nil {
			d := c.PositionOf(j).Dist(senderPos)
			if edge := c.RangeOf(f.From) - d; edge < c.cfg.FadeZone {
				if !c.rnd.Bool(edge / c.cfg.FadeZone) {
					c.stats.Faded++
					continue
				}
			}
		}
		if c.cfg.Collisions {
			rec := c.noteReception(j, start, end)
			if rec.corrupted {
				// The frame overlaps one already in flight at j: dead on
				// arrival, so count it now and never schedule it. (The
				// earlier frame's reception is counted when it arrives.)
				c.stats.Collided++
				continue
			}
			b.recs = append(b.recs, rec)
		}
		b.recv = append(b.recv, j)
	}
	if len(b.recv) == 0 {
		c.putBatch(b)
		return
	}
	// One pooled event delivers the whole frame: the receivers fire in
	// scratch order at the same instant, exactly as the per-receiver events
	// they replace would have (they held consecutive sequence numbers).
	c.sim.SchedulePooled(arrive, b.fire)
}

// getBatch pops a delivery batch from the free list, or makes a new one
// with its dispatch closure pre-bound so steady-state broadcasts allocate
// nothing.
func (c *Channel) getBatch() *deliveryBatch {
	if n := len(c.batchFree); n > 0 {
		b := c.batchFree[n-1]
		c.batchFree[n-1] = nil
		c.batchFree = c.batchFree[:n-1]
		return b
	}
	b := &deliveryBatch{ch: c}
	b.fire = b.deliverAll
	return b
}

// putBatch clears a batch and returns it to the free list.
func (c *Channel) putBatch(b *deliveryBatch) {
	b.f = Frame{}
	b.recv = b.recv[:0]
	b.recs = b.recs[:0]
	c.batchFree = append(c.batchFree, b)
}

// deliverAll hands the frame to every surviving receiver at arrival time.
func (b *deliveryBatch) deliverAll() {
	c := b.ch
	for k, j := range b.recv {
		if len(b.recs) > 0 && b.recs[k].corrupted {
			c.stats.Collided++
			continue
		}
		if !c.Online(j) {
			continue // receiver powered down while the frame was in flight
		}
		c.stats.Deliveries++
		c.deliver(j, b.f)
	}
	c.putBatch(b)
}

// noteReception registers an in-flight frame at receiver j and applies the
// collision rule: any temporal overlap with another in-flight frame corrupts
// both. The returned record is corrupted immediately when the frame collides
// with one already in flight.
func (c *Channel) noteReception(j int, start, end float64) *reception {
	now := c.sim.Now()
	// Prune completed receptions, recycling records whose delivery batch has
	// provably fired (a batch fires at end+BaseLatency; anything later may
	// still hold the pointer this instant).
	live := c.inflight[j][:0]
	for _, r := range c.inflight[j] {
		if r.end > now {
			live = append(live, r)
		} else if r.end+c.cfg.BaseLatency < now {
			c.recFree = append(c.recFree, r)
		}
	}
	c.inflight[j] = live
	var rec *reception
	if n := len(c.recFree); n > 0 {
		rec = c.recFree[n-1]
		c.recFree[n-1] = nil
		c.recFree = c.recFree[:n-1]
		*rec = reception{start: start, end: end}
	} else {
		rec = &reception{start: start, end: end}
	}
	for _, r := range c.inflight[j] {
		if r.start < end && start < r.end { // temporal overlap
			r.corrupted = true
			rec.corrupted = true
		}
	}
	c.inflight[j] = append(c.inflight[j], rec)
	return rec
}

// DistanceBetween returns the exact distance between nodes i and j now.
func (c *Channel) DistanceBetween(i, j int) float64 {
	return c.PositionOf(i).Dist(c.PositionOf(j))
}

// OverlapWith returns the fraction of node j's transmission disk covered by
// node i's transmission disk at the current time — the p of Optimization
// Mechanism (2). With heterogeneous ranges the lens is computed on the two
// actual radii.
func (c *Channel) OverlapWith(i, j int) float64 {
	ri, rj := c.RangeOf(i), c.RangeOf(j)
	d := c.DistanceBetween(i, j)
	if ri == rj {
		return geo.OverlapFraction(ri, d)
	}
	return geo.LensArea(ri, rj, d) / (math.Pi * rj * rj)
}

// MaxRange returns the largest transmission range of any node.
func (c *Channel) MaxRange() float64 { return c.maxRange }

// MaxSpeed returns the configured bound on node speed. Everything that
// reasons from a snapshot or a sampled chord to "cannot have got there" leans
// on it: the grid-staleness slack here, the collector's candidate bound in
// internal/metrics.
func (c *Channel) MaxSpeed() float64 { return c.cfg.MaxSpeed }

// Utilization returns the fraction of the elapsed simulation time the
// medium spent serializing advertisement frames (network-wide airtime over
// wall time; local utilization around a hotspot is higher). A crude but
// useful congestion indicator: the paper's motivation for cutting message
// counts is exactly keeping this low on a shared channel.
func (c *Channel) Utilization() float64 {
	now := c.sim.Now()
	if now <= 0 {
		return 0
	}
	return c.stats.AirtimeSec / now
}
