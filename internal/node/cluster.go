package node

import (
	"fmt"
	"time"

	"instantad/internal/ads"
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

// NewDiscoveryCluster builds one node per configuration and wires them by
// beacon discovery instead of a static mesh: the node at index seed is built
// first and every other node receives its address as the only bootstrap
// contact, so the peer sets are grown entirely by HELLO beacons. Every
// config must have a positive BeaconInterval; ListenAddr defaults to
// "127.0.0.1:0" when empty and no custom Transport is set. Nodes are not
// started; call Start. On any error the already-bound sockets are closed.
func NewDiscoveryCluster(cfgs []Config, seed int) (*Cluster, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("node: empty cluster")
	}
	if seed < 0 || seed >= len(cfgs) {
		return nil, fmt.Errorf("node: seed index %d outside the cluster", seed)
	}
	epoch := time.Now()
	c := &Cluster{Nodes: make([]*Node, len(cfgs))}
	build := func(i int, seedAddr string) error {
		cfg := cfgs[i]
		if cfg.BeaconInterval <= 0 {
			return fmt.Errorf("node %d: discovery cluster requires a beacon interval", i)
		}
		if cfg.ListenAddr == "" && cfg.Transport == nil {
			cfg.ListenAddr = "127.0.0.1:0"
		}
		if seedAddr != "" {
			cfg.Seeds = append(append([]string(nil), cfg.Seeds...), seedAddr)
		}
		n, err := New(cfg)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		n.SetEpoch(epoch)
		c.Nodes[i] = n
		return nil
	}
	if err := build(seed, ""); err != nil {
		return nil, err
	}
	seedAddr := c.Nodes[seed].Addr()
	for i := range cfgs {
		if i == seed {
			continue
		}
		if err := build(i, seedAddr); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// WaitNeighbors polls until every node's neighbor table holds at least want
// entries or the timeout passes, reporting success — the discovery
// convergence condition.
func (c *Cluster) WaitNeighbors(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, n := range c.Nodes {
			if n.NeighborCount() < want {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
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

// WaitAll polls until every node has heard the given ad or the timeout
// passes, reporting success.
func (c *Cluster) WaitAll(id ads.ID, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, n := range c.Nodes {
			if !n.Has(id) {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
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
