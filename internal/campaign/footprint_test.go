package campaign

import (
	"testing"
	"time"

	"instantad/internal/testutil"
)

// footprintConfig is the fleet shape the repository benchmark's live_fleet
// workload boots, at the given size.
func footprintConfig(nodes int) FleetConfig {
	return FleetConfig{
		Nodes: nodes, Spacing: 150, Range: 230,
		RoundTime: 100 * time.Millisecond, Seed: 1,
	}
}

// TestFleetNodeFootprint guards what an idle fleet node retains. A node that
// has received nothing holds its plain counters, its maps and its peer list,
// no registry, no timer and no goroutine: 2.9 KB on linux/amd64 with go1.24.
// It held 3.1 KB while every memnet conn kept two channels for a blocking
// read, 3.7 KB while every node parked a reader goroutine on its conn,
// 4.4 KB while every node also ran its polls from a ticker of its own,
// 11.4 KB while every node built a registry and seven histograms nobody
// served, and 236 KB while memnet pre-sized a 4096-slot channel per endpoint
// and every read loop kept a 64 KB buffer. The next per-node allocation of
// that kind should fail here, not wait for a benchmark.
func TestFleetNodeFootprint(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's runtime inflates the heap")
	}
	const nodes, limit = 500, 4288
	before := testutil.HeapAfterGC()
	fl, err := NewFleet(footprintConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	perNode := (testutil.HeapAfterGC() - before) / nodes
	t.Logf("idle heap per node: %d bytes", perNode)
	if perNode >= limit {
		t.Errorf("an idle fleet node retains %d bytes, limit %d", perNode, limit)
	}
	if st := fl.MediumStats(); st.MaxQueue != 0 || st.Delivered != 0 {
		t.Errorf("the fleet was not idle while measured: %+v", st)
	}
	for i, n := range fl.nodes {
		if n.Registry() != nil {
			t.Fatalf("fleet node %d has a registry", i)
		}
	}
}

// BenchmarkFleetBoot times NewFleet + Close of a 1000-node fleet; with
// -benchmem it also prints what a boot allocates.
func BenchmarkFleetBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fl, err := NewFleet(footprintConfig(1000))
		if err != nil {
			b.Fatal(err)
		}
		if err := fl.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
