package node

import (
	"fmt"
	"time"

	"instantad/internal/geo"
)

// Cluster is a set of live nodes on one machine, fully meshed at the
// datagram level, sharing a protocol epoch — the quickest way to stand up a
// real deployment for testing, demos and local experiments. The virtual
// radio (per-node Range) decides who actually hears whom.
type Cluster struct {
	Nodes []*Node
}

// NewCluster builds one node per configuration, wires every node to every
// other as a datagram peer, and aligns their protocol clocks. ListenAddr
// defaults to "127.0.0.1:0" when empty. Nodes are not started; call Start.
// On any error the already-bound sockets are closed.
func NewCluster(cfgs []Config) (*Cluster, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("node: empty cluster")
	}
	epoch := time.Now()
	c := &Cluster{}
	for i, cfg := range cfgs {
		if cfg.ListenAddr == "" {
			cfg.ListenAddr = "127.0.0.1:0"
		}
		n, err := New(cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		n.SetEpoch(epoch)
		c.Nodes = append(c.Nodes, n)
	}
	for i, a := range c.Nodes {
		for j, b := range c.Nodes {
			if i == j {
				continue
			}
			if err := a.AddPeer(b.Addr()); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// Start starts every node.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.Start()
	}
}

// Close shuts every node down, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.Nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TotalStats sums every node's counters (gauges included) — the cluster-wide
// view the soak tests and demos assert on.
func (c *Cluster) TotalStats() Stats {
	var t Stats
	for _, n := range c.Nodes {
		t.Add(n.Stats())
	}
	return t
}

// ChainConfigs is a convenience for the canonical demo topology: n nodes in
// a line, spacing meters apart, with the given radio range and round time.
//
// Optimization Mechanism 2 is off. It postpones a relay's per-entry timer by
// at least a round every time the relay overhears the ad, which presumes the
// overheard copy also reaches the peers downstream. On a static multi-hop
// chain it does not: the relay hears the issuer every round, never fires, and
// nothing beyond the issuer's range is ever served.
func ChainConfigs(n int, spacing, radioRange float64, round time.Duration) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{
			ID:        uint32(i),
			Range:     radioRange,
			Position:  StaticPosition(geo.Point{X: float64(i) * spacing, Y: 0}),
			Alpha:     0.5,
			Beta:      0.5,
			RoundTime: round,
			CacheK:    10,
			Opt2:      false,
			Seed:      uint64(i) + 1,
		}
	}
	return cfgs
}
