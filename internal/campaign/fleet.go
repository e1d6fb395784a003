package campaign

import (
	"fmt"
	"math"
	"sync"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node"
	"instantad/internal/node/memnet"
	"instantad/internal/rng"
)

// FleetConfig sizes and tunes a captive load farm of live nodes.
type FleetConfig struct {
	// Nodes is the fleet size; required.
	Nodes int
	// Spacing is the grid pitch in meters (nodes sit on a jittered square
	// grid). Zero means 150.
	Spacing float64
	// Range is the radio range in meters: the static wiring peers each node
	// with every node within it, and each node's virtual radio drops frames
	// from senders beyond it. Zero means 220 — about 8 radio neighbors at the
	// default spacing.
	Range float64
	// RoundTime is the gossip round Δt. Zero means 200ms.
	RoundTime time.Duration
	// CacheK is the per-node Store & Forward capacity. Zero means 16.
	CacheK int
	// BatchSoftCap, DigestEvery and RoundBytes pass through to node.Config
	// (BatchSoftCap zero means 1400 bytes, otherwise 512–65507; DigestEvery
	// zero means 4, -1 disables digests).
	BatchSoftCap int
	DigestEvery  int
	RoundBytes   int
	// Loss is the medium's per-datagram drop probability.
	Loss float64
	// Seed drives placement jitter, the medium's loss stream and per-node
	// forwarding coins. Zero means 1.
	Seed uint64
	// Beacon, when positive, is the nodes' BeaconInterval: HELLO beacons on
	// top of the static geometric wiring (neighbor tables, position
	// refresh). Zero — the default — keeps the fleet silent between gossip
	// rounds: an idle node then costs about 3.1 KB of heap and no goroutine
	// (node's poll driver runs every node's polls and dispatches its
	// datagrams from a few shared goroutines), so 10^4 nodes hold about
	// 31 MB of heap.
	Beacon time.Duration
	// Probes caps the per-ad delivery probe set. Zero means 32.
	Probes int
}

func (c *FleetConfig) norm() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("fleet: node count %d must be > 0", c.Nodes)
	}
	if c.Spacing == 0 {
		c.Spacing = 150
	}
	// Positive form, so NaN fails as well as the out-of-range values.
	if !(c.Spacing > 0 && c.Spacing < math.Inf(1)) {
		return fmt.Errorf("fleet: spacing %v must be finite and > 0", c.Spacing)
	}
	if c.Range == 0 {
		c.Range = 220
	}
	if !(c.Range > 0 && c.Range < math.Inf(1)) {
		return fmt.Errorf("fleet: range %v must be finite and > 0", c.Range)
	}
	if !(c.Loss >= 0 && c.Loss <= 1) {
		return fmt.Errorf("fleet: loss %v outside [0,1]", c.Loss)
	}
	if c.RoundTime == 0 {
		c.RoundTime = 200 * time.Millisecond
	}
	if c.CacheK == 0 {
		c.CacheK = 16
	}
	if c.DigestEvery == 0 {
		c.DigestEvery = 4
	}
	if c.DigestEvery < 0 {
		c.DigestEvery = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Probes == 0 {
		c.Probes = defaultProbes
	}
	return nil
}

const defaultProbes = 32

// Fleet is a live memnet deployment: cfg.Nodes real node.Node instances on a
// jittered grid over one switchboard, statically wired by geometry. It is the
// control plane's "production" backend — the scheduler injects real ads into
// it and measures real gossip delivery.
type Fleet struct {
	cfg   FleetConfig
	sb    *memnet.Switchboard
	nodes []*node.Node
	pos   []geo.Point

	mu       sync.Mutex
	totals   node.Stats
	totalsAt time.Time
}

// totalsTTL bounds how often Totals re-walks all N nodes: scrapes and
// admission checks between refreshes share one aggregate.
const totalsTTL = time.Second

// NewFleet builds and wires the fleet; nodes are live (gossip loops running)
// when it returns. Node i sits at grid cell (i mod side, i div side) with
// ±Spacing/4 jitter, binds "mem:n<i>", and is statically peered with every
// node within radio range — so there are no beacon storms to pay at 10^4
// nodes. The medium carries every datagram; each node's virtual radio
// applies the range, as over UDP.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.norm(); err != nil {
		return nil, err
	}
	sb, err := memnet.New(memnet.Config{Loss: cfg.Loss, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, sb: sb}

	// Placement: square grid, deterministic jitter.
	side := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	jit := rng.New(cfg.Seed).Split("fleet-jitter")
	f.pos = make([]geo.Point, cfg.Nodes)
	for i := range f.pos {
		f.pos[i] = geo.Point{
			X: float64(i%side)*cfg.Spacing + jit.Range(-cfg.Spacing/4, cfg.Spacing/4),
			Y: float64(i/side)*cfg.Spacing + jit.Range(-cfg.Spacing/4, cfg.Spacing/4),
		}
	}

	epoch := time.Now()
	f.nodes = make([]*node.Node, cfg.Nodes)
	for i := range f.nodes {
		ncfg := node.Config{
			ID:             uint32(i),
			ListenAddr:     fmt.Sprintf("mem:n%d", i),
			Transport:      sb.Transport(),
			Range:          cfg.Range,
			Position:       node.StaticPosition(f.pos[i]),
			Alpha:          0.5,
			Beta:           0.5,
			RoundTime:      cfg.RoundTime,
			CacheK:         cfg.CacheK,
			Opt2:           true,
			Seed:           cfg.Seed + uint64(i)*2654435761,
			BatchSoftCap:   cfg.BatchSoftCap,
			DigestEvery:    cfg.DigestEvery,
			RoundBytes:     cfg.RoundBytes,
			BeaconInterval: cfg.Beacon,
		}
		n, err := node.New(ncfg)
		if err != nil {
			f.closeNodes()
			return nil, fmt.Errorf("fleet node %d: %w", i, err)
		}
		n.SetEpoch(epoch)
		f.nodes[i] = n
	}

	// Static geometric wiring via cell bins: each node peers with every
	// other node within radio range, found by scanning the 3×3 cell
	// neighborhood — O(N·k) instead of O(N²).
	cell := cfg.Range
	bins := make(map[[2]int][]int, cfg.Nodes)
	key := func(p geo.Point) [2]int {
		return [2]int{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
	}
	for i, p := range f.pos {
		k := key(p)
		bins[k] = append(bins[k], i)
	}
	for i, p := range f.pos {
		k := key(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bins[[2]int{k[0] + dx, k[1] + dy}] {
					if j == i || p.Dist(f.pos[j]) > cfg.Range {
						continue
					}
					if err := f.nodes[i].AddPeer(f.nodes[j].Addr()); err != nil {
						f.closeNodes()
						return nil, fmt.Errorf("fleet wiring %d→%d: %w", i, j, err)
					}
				}
			}
		}
	}

	for _, n := range f.nodes {
		n.Start()
	}
	return f, nil
}

// closeNodes shuts down whatever nodes exist, one after another: a Close
// takes the node off the poll driver and waits only for a poll or drain
// already running, so 1 000 nodes close in a few milliseconds.
func (f *Fleet) closeNodes() {
	for _, n := range f.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// Close shuts the whole fleet down.
func (f *Fleet) Close() error {
	f.closeNodes()
	return nil
}

// NodeCount returns the fleet size.
func (f *Fleet) NodeCount() int { return len(f.nodes) }

// Position returns node i's fixed position.
func (f *Fleet) Position(i int) geo.Point { return f.pos[i] }

// nearest returns the index of the node closest to p.
func (f *Fleet) nearest(p geo.Point) int {
	best, bd := 0, math.Inf(1)
	for i, q := range f.pos {
		if d := p.Dist(q); d < bd {
			best, bd = i, d
		}
	}
	return best
}

// Inject issues one real ad from the node nearest center, returning its wire
// identity and the origin node's index (so callers can keep the origin — a
// trivial instant delivery — out of the probe set).
func (f *Fleet) Inject(center geo.Point, spec core.AdSpec) (ads.ID, int, error) {
	i := f.nearest(center)
	ad, err := f.nodes[i].Issue(spec)
	if err != nil {
		return ads.ID{}, i, err
	}
	return ad.ID, i, nil
}

// ProbeSet picks up to max node indices inside the disc (center, radius) as
// the delivery probe set for one ad: evenly strided over the in-area nodes so
// the probes spread across the disc instead of clustering at low indices.
func (f *Fleet) ProbeSet(center geo.Point, radius float64, max int) []int {
	var in []int
	for i, p := range f.pos {
		if p.Dist(center) <= radius {
			in = append(in, i)
		}
	}
	if max <= 0 {
		max = defaultProbes
	}
	if len(in) <= max {
		return in
	}
	out := make([]int, 0, max)
	stride := float64(len(in)) / float64(max)
	for k := 0; k < max; k++ {
		out = append(out, in[int(float64(k)*stride)])
	}
	return out
}

// Has reports whether node i currently has the ad cached or remembered.
func (f *Fleet) Has(i int, id ads.ID) bool { return f.nodes[i].Has(id) }

// Totals aggregates every node's counters, cached for totalsTTL — the walk
// is O(N) and feeds both metric gauges and admission signals.
func (f *Fleet) Totals() node.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	if time.Since(f.totalsAt) < totalsTTL && !f.totalsAt.IsZero() {
		return f.totals
	}
	var t node.Stats
	for _, n := range f.nodes {
		t.Add(n.Stats())
	}
	f.totals, f.totalsAt = t, time.Now()
	return t
}

// MediumStats snapshots the switchboard's counters.
func (f *Fleet) MediumStats() memnet.Stats { return f.sb.Stats() }

// Probes returns the configured per-ad probe cap.
func (f *Fleet) Probes() int { return f.cfg.Probes }
