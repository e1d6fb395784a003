// Spatial sharding of the grid snapshot into tile stripes.
//
// A sharded channel (Config.Shards > 1) splits the dense cell lattice into
// vertical stripes of contiguous cell columns. Because the CSR layout is
// x-major, one stripe's cells — and its slice of the cellNodes arena — form
// one contiguous block of the one snapshot every channel builds (rebuildGrid,
// sequential; a goroutine-per-stripe build measured slower than none and is
// gone). Tiling is therefore bookkeeping derived from that snapshot and never
// an input to it, which is what makes shards=K bit-identical to shards=1:
// queries walk the same cells in the same order and feed the channel's shared
// RNG stream the same candidate sequences. The one thing the stripe count
// does decide is the dense-array budget on huge sparse fields (GridCellSize).
//
// Each stripe is padded by a halo ring of cell columns wide enough to cover
// a protocol-range neighbor query issued from an owned node, with both the
// querying node and the candidates drifting up to MaxSpeed·GridRefresh since
// the snapshot. In this shared-memory engine the halo needs no copying —
// neighboring stripes' boundary columns are directly readable in the shared
// arena — but the window is computed and its population counted every rebuild
// (ShardStats.HaloMirrored), so a distributed or NUMA port knows exactly
// which columns to materialize.
//
// Peers are assigned to the stripe owning their snapshot cell; assignments
// are refreshed at every rebuild and tile crossings are counted as
// migrations. The simulator consumes the assignment through ShardOf (see
// sim.SetShardMap): round decides of one stripe run on one worker, giving
// the decision phase spatial locality. Cross-stripe deliveries ride the
// global event queue — committed in (time, seq) order, which is the same
// deterministic global order for every shard count — and are tallied in a
// per-(source, destination) outbox matrix.
package radio

import (
	"math"

	"instantad/internal/obs"
)

// stripe describes one shard's tile: the cell-column block it owns and the
// halo-padded window it may read.
type stripe struct {
	cx0, cx1 int // owned cell-column range [cx0, cx1)
	hx0, hx1 int // owned range padded by the halo ring, clamped to the grid
}

// ShardStats counts sharding activity since the channel was created. All of
// it is observational: none of these counts feeds back into queries, RNG
// draws or event order.
type ShardStats struct {
	Rebuilds        uint64 // grid snapshot rebuilds (sharded or not)
	Migrations      uint64 // peers whose owning stripe changed at a rebuild
	HaloMirrored    uint64 // nodes visible in some stripe's halo ring, summed per rebuild
	CrossDeliveries uint64 // (frame, receiver) deliveries routed between stripes
}

// radioInstruments are the channel's registry instruments (see
// InstrumentWith). nil when uninstrumented.
type radioInstruments struct {
	rebuilds    *obs.Counter
	reevaluated *obs.Counter
	rebuildSec  *obs.Histogram
	migrations  *obs.Counter
	halo        *obs.Counter
	cross       *obs.Counter
	shardsG     *obs.Gauge
	skew        *obs.Gauge
}

// InstrumentWith attaches radio_* metrics to reg: rebuild counters and
// wall-clock timings, per-rebuild migration and halo tallies, cross-stripe
// delivery counts, and stripe-count/occupancy-skew gauges. Pass nil to
// detach. Instruments never influence event order; instrumented and bare
// runs stay bit-identical.
func (c *Channel) InstrumentWith(reg *obs.Registry) {
	if reg == nil {
		c.ins = nil
		return
	}
	c.ins = &radioInstruments{
		rebuilds: reg.Counter("radio_grid_rebuilds_total",
			"spatial grid snapshot rebuilds"),
		reevaluated: reg.Counter("radio_grid_nodes_reevaluated_total",
			"nodes whose position a grid rebuild evaluated (the rest were certified to be in their cell still)"),
		rebuildSec: reg.Histogram("radio_grid_rebuild_seconds",
			"wall-clock time of one grid snapshot rebuild",
			obs.ExpBuckets(1e-6, 4, 12)),
		migrations: reg.Counter("radio_shard_migrations_total",
			"peers whose owning tile stripe changed at a grid rebuild"),
		halo: reg.Counter("radio_halo_mirrored_total",
			"nodes visible in a neighboring stripe's halo ring, summed per rebuild"),
		cross: reg.Counter("radio_cross_shard_deliveries_total",
			"(frame, receiver) deliveries routed between tile stripes"),
		shardsG: reg.Gauge("radio_shards",
			"effective tile stripes of the last grid rebuild"),
		skew: reg.Gauge("radio_shard_occupancy_skew",
			"max/mean owned-node ratio across stripes at the last rebuild (1 = balanced)"),
	}
	c.ins.shardsG.Set(float64(c.EffectiveShards()))
}

// ShardCount returns the configured stripe count (≥ 1). Stripe ids produced
// by ShardOf are always below it.
func (c *Channel) ShardCount() int { return c.shards }

// EffectiveShards returns the number of stripes the last rebuild actually
// produced — fewer than ShardCount when the grid has fewer cell columns
// than configured stripes. 1 before the first rebuild or when unsharded.
func (c *Channel) EffectiveShards() int {
	if len(c.stripes) == 0 {
		return 1
	}
	return len(c.stripes)
}

// ShardOf returns the stripe owning node i as of the last grid rebuild
// (0 when unsharded or before the first rebuild). The signature matches
// sim.SetShardMap, which is how the executor routes a peer's round decides
// to its stripe's worker — and re-routes them after a tile crossing, since
// the map is consulted afresh at every batch boundary.
func (c *Channel) ShardOf(i int) int {
	if c.shardOf == nil {
		return 0
	}
	return int(c.shardOf[i])
}

// ShardStats returns a copy of the sharding counters.
func (c *Channel) ShardStats() ShardStats { return c.shardStats }

// Outbox returns the number of (frame, receiver) deliveries routed from
// stripe src to stripe dst since the channel was created. The diagonal
// holds intra-stripe traffic; zero for unsharded channels.
func (c *Channel) Outbox(src, dst int) uint64 {
	if c.outbox == nil || src < 0 || dst < 0 || src >= c.shards || dst >= c.shards {
		return 0
	}
	return c.outbox[src*c.shards+dst]
}

// GridCellSize returns the effective cell edge of the current snapshot
// (0 before the first rebuild). Sharded channels keep finer cells on huge
// sparse fields: the dense-array budget is maxGridCells per stripe, not
// global.
func (c *Channel) GridCellSize() float64 {
	if !c.gridBuilt {
		return 0
	}
	return c.gridCell
}

// tileStripes tiles the grid's columns into ks contiguous non-empty stripes
// (ks collapses toward the column count on narrow grids) and pads each with a
// halo ring covering a protocol-range query whose endpoints drift up to
// MaxSpeed·GridRefresh between the snapshot and the staleness deadline. It
// depends on the geometry alone, so it runs when that is chosen.
func (c *Channel) tileStripes() {
	nx := c.gridNX
	ks := min(c.shards, nx)
	hc := int(math.Ceil((c.maxRange + 2*c.cfg.MaxSpeed*c.cfg.GridRefresh) / c.gridCell))
	c.stripes = c.stripes[:0]
	for s := 0; s < ks; s++ {
		st := stripe{cx0: s * nx / ks, cx1: (s + 1) * nx / ks}
		st.hx0 = max(st.cx0-hc, 0)
		st.hx1 = min(st.cx1+hc, nx)
		c.stripes = append(c.stripes, st)
	}
	if cap(c.stripeOfCx) < nx {
		c.stripeOfCx = make([]int32, nx)
	}
	c.stripeOfCx = c.stripeOfCx[:nx]
	for s, st := range c.stripes {
		for cx := st.cx0; cx < st.cx1; cx++ {
			c.stripeOfCx[cx] = int32(s)
		}
	}
	if c.shardOf == nil {
		c.shardOf = make([]int32, len(c.models))
	}
}

// accountStripes derives halo and occupancy from the finished snapshot and
// books them with the migrations the rebuild counted.
func (c *Channel) accountStripes(migrations uint64) {
	ny := c.gridNY
	colPop := func(cx0, cx1 int) int {
		return int(c.cellStart[cx1*ny] - c.cellStart[cx0*ny])
	}
	var halo uint64
	maxOwned := 0
	for _, st := range c.stripes {
		halo += uint64(colPop(st.hx0, st.cx0) + colPop(st.cx1, st.hx1))
		maxOwned = max(maxOwned, colPop(st.cx0, st.cx1))
	}
	c.shardStats.Migrations += migrations
	c.shardStats.HaloMirrored += halo
	if c.ins != nil {
		c.ins.migrations.Add(migrations)
		c.ins.halo.Add(halo)
		c.ins.shardsG.Set(float64(len(c.stripes)))
		if mean := float64(len(c.models)) / float64(len(c.stripes)); mean > 0 {
			c.ins.skew.Set(float64(maxOwned) / mean)
		}
	}
}
