package node

import (
	"fmt"
	"time"

	"instantad/internal/ads"
)

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
