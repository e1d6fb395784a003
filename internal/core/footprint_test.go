package core

import (
	"runtime"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
	"instantad/internal/testutil"
)

// TestPeerFootprint guards what a peer costs an idle Optimized Gossiping-2
// network: 4 000 Random Waypoint peers on a 5 km field, built and started,
// no ad issued. The heap New and Start add is the peer rows plus the
// channel's piece table. One slab of 136 B rows and 48 B pieces reads 186 B
// a peer on linux/amd64 with go1.24; separate 176 B peer objects with their
// coin streams behind pointers, and 64 B pieces, read 274 B. The limit is
// 1.25× the slab's reading, so the next per-peer field of a protocol family,
// or a pointer per row, fails here rather than waiting for a benchmark.
func TestPeerFootprint(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's runtime inflates the heap")
	}
	const peers, limit = 4000, 232
	rnd := rng.New(7)
	wp := mobility.RandomWaypointConfig{Field: geo.NewRect(5000, 5000), SpeedMean: 10, SpeedDelta: 5, Pause: 10, Horizon: 60}
	models := make([]mobility.Model, peers)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(wp, rnd.SplitIndex("model", i))
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	rc := radio.DefaultConfig()
	rc.MaxSpeed = wp.MaxSpeed()
	s := sim.New()
	before := testutil.HeapAfterGC()
	n, err := New(s, rc, models, testConfig(GossipOpt2), rnd.Split("protocol"))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	perPeer := (testutil.HeapAfterGC() - before) / peers
	runtime.KeepAlive(n)
	runtime.KeepAlive(s)
	t.Logf("idle heap per peer: %d bytes", perPeer)
	if perPeer > limit {
		t.Errorf("an idle Optimized Gossiping-2 peer retains %d bytes, limit %d", perPeer, limit)
	}
}
