package mobility

import (
	"runtime"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/rng"
	"instantad/internal/testutil"
)

// TestTrajectoryFootprint guards what a Random Waypoint trajectory retains
// on the shape of the repository benchmark's fig7_sweep: 1 000 peers on the
// canonical 1500 m field at 10±5 m/s with 10 s pauses for 300 s. A stop list
// holds 207 B a trajectory on linux/amd64 with go1.24; the 48 B legs it
// replaced, each repeating the last one's end, held 350 B. The limit is 1.5×
// the stop list's reading. The next per-trajectory field or slack of that
// kind should fail here, not wait for a benchmark.
func TestTrajectoryFootprint(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's runtime inflates the heap")
	}
	const nodes, limit = 1000, 310
	cfg := RandomWaypointConfig{Field: geo.NewRect(1500, 1500), SpeedMean: 10, SpeedDelta: 5, Pause: 10, Horizon: 300}
	root := rng.New(7)
	models := make([]Model, nodes)
	before := testutil.HeapAfterGC()
	for i := range models {
		m, err := NewRandomWaypoint(cfg, root.SplitIndex("mobility", i))
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	perNode := (testutil.HeapAfterGC() - before) / nodes
	runtime.KeepAlive(models)
	t.Logf("heap per trajectory: %d bytes", perNode)
	if perNode >= limit {
		t.Errorf("a Random Waypoint trajectory retains %d bytes, limit %d", perNode, limit)
	}
}
