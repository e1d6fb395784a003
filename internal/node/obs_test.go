package node

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/obs"
)

// TestStatsRegistryEquivalence walks Stats' tag rows on a four-node
// soak-shaped cluster: every field, counter or gauge, must read back exactly
// the registry instrument its row names.
func TestStatsRegistryEquivalence(t *testing.T) {
	nodes := cluster(t, []geo.Point{
		{X: 0}, {X: 200}, {X: 400}, {X: 600},
	}, func(i int, c *Config) {
		c.CacheK = 16
	})
	for k := 0; k < 5; k++ {
		if _, err := nodes[0].Issue(core.AdSpec{R: 1500, D: 2, Category: "petrol", Text: "equiv"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	waitFor(t, 3*time.Second, func() bool {
		return nodes[3].Stats().Received > 0
	})
	// Freeze the counters before comparing: a live node may count between
	// the two reads.
	for _, n := range nodes {
		_ = n.Close()
	}
	for i, n := range nodes {
		st := n.Stats()
		snap := n.Registry().Snapshot()
		sv := reflect.ValueOf(st)
		for j, r := range statRows {
			want := sv.Field(j).Uint()
			if r.gauge != nil {
				if g, ok := snap.Gauges[r.metric]; !ok || uint64(g) != want {
					t.Errorf("node %d: gauge %s = %v, Stats says %d", i, r.metric, g, want)
				}
			} else if got, ok := snap.Counters[r.metric]; !ok || got != want {
				t.Errorf("node %d: %s = %d, Stats says %d", i, r.metric, got, want)
			}
		}
		if st.Received > 0 {
			hs, ok := snap.Histograms["node_receive_latency_seconds"]
			if !ok || hs.Count == 0 {
				t.Errorf("node %d received %d ads but the latency histogram is empty", i, st.Received)
			}
		}
	}
	if nodes[3].Stats().Received == 0 {
		t.Error("far node never received; equivalence only checked zeros")
	}
}

// TestMetricsExpositionParses is the /metrics acceptance test at the layer
// boundary: a discovery-enabled node's registry must expose valid Prometheus
// text including a counter, a gauge and a histogram from both the node and
// discovery layers.
func TestMetricsExpositionParses(t *testing.T) {
	nodes := cluster(t, []geo.Point{{X: 0}, {X: 100}}, func(i int, c *Config) {
		c.BeaconInterval = 20 * time.Millisecond
	})
	waitFor(t, 3*time.Second, func() bool {
		return nodes[0].NeighborCount() > 0 && nodes[0].Stats().BeaconsRecv > 1
	})
	if _, err := nodes[0].Issue(core.AdSpec{R: 500, D: 5, Category: "petrol", Text: "expo"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return nodes[1].Stats().Received > 0 })

	var buf bytes.Buffer
	if err := nodes[0].Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("/metrics body does not parse: %v\n%s", err, buf.String())
	}
	required := map[string]string{
		// node layer: counter, gauge, histogram
		"node_sent_total":              "counter",
		"node_peers_live":              "gauge",
		"node_send_latency_seconds":    "histogram",
		"node_receive_latency_seconds": "histogram",
		// discovery layer: counter, gauge, histogram
		"discovery_neighbors_new_total":         "counter",
		"discovery_neighbors":                   "gauge",
		"discovery_beacon_interarrival_seconds": "histogram",
		"discovery_beacons_refreshed_total":     "counter",
	}
	for name, typ := range required {
		f, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s has type %s, want %s", name, f.Type, typ)
		}
	}
	if fams["discovery_neighbors_new_total"].Samples["discovery_neighbors_new_total"] < 1 {
		t.Error("no new neighbors counted despite discovery running")
	}
	if fams["discovery_beacon_interarrival_seconds"].Samples["discovery_beacon_interarrival_seconds_count"] < 1 {
		t.Error("beacon interarrival histogram empty despite refreshes")
	}
}

// TestNodeEventTrace asserts the lifecycle trace captures membership,
// discovery and backoff transitions as well-formed JSONL.
func TestNodeEventTrace(t *testing.T) {
	var sink bytes.Buffer
	rec := NewEventRecorder(&sink)
	cfg := testConfig(1, geo.Point{})
	cfg.Events = rec
	cfg.PeerFailLimit = 1
	cfg.PeerBackoffBase = 10 * time.Millisecond
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.AddPeer("127.0.0.1:9"); err != nil { // discard port: sends may fail
		t.Fatal(err)
	}
	if !n.RemovePeer("127.0.0.1:9") {
		t.Fatal("peer not removed")
	}
	_ = n.Close()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, ev := range events {
		if ev.T == 0 {
			t.Errorf("event %+v without a timestamp", ev)
		}
		kinds[ev.Kind]++
	}
	if kinds["peer_add"] != 1 || kinds["peer_remove"] != 1 {
		t.Errorf("membership events = %v, want one peer_add and one peer_remove", kinds)
	}
}

// TestEventRecorderStickyError mirrors the trace.Recorder short-write fix:
// a failing underlying writer must surface through Flush and Err, and stop
// the recorder.
func TestEventRecorderStickyError(t *testing.T) {
	w := &failingWriter{failAfter: 1}
	rec := NewEventRecorder(w)
	for i := 0; i < 2000; i++ { // enough to overflow the 4KiB bufio buffer
		rec.Record(NodeEvent{Kind: "peer_add", Peer: "x"})
	}
	if err := rec.Flush(); err == nil {
		t.Fatal("Flush did not surface the write error")
	}
	if rec.Err() == nil {
		t.Fatal("Err lost the sticky error")
	}
	before := rec.Len()
	rec.Record(NodeEvent{Kind: "peer_add"})
	if rec.Len() != before {
		t.Error("recorder kept accepting events after the error")
	}
}

// failingWriter accepts failAfter writes, then errors forever.
type failingWriter struct {
	failAfter int
	writes    int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, errTestSink
	}
	return len(p), nil
}

var errTestSink = errors.New("sink failed")
