package node

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/memnet"
	"instantad/internal/obs"
	"instantad/internal/trace"
)

// TestStatsRegistryEquivalence walks Stats' tag rows on a four-node
// soak-shaped cluster of served nodes: every field, counter or gauge, must
// read back exactly the registry instrument its row names.
func TestStatsRegistryEquivalence(t *testing.T) {
	nodes := cluster(t, []geo.Point{
		{X: 0}, {X: 200}, {X: 400}, {X: 600},
	}, func(i int, c *Config) {
		c.CacheK = 16
		c.Registry = obs.NewRegistry()
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
			if r.gauge {
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
		c.Registry = obs.NewRegistry()
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

// TestNodeEventTrace asserts the node's membership events reach a
// trace.Recorder in the trace schema: one peer_add and one peer_remove, each
// with the node as peer and the canonical address.
func TestNodeEventTrace(t *testing.T) {
	var sink bytes.Buffer
	rec := trace.NewRecorder(&sink, nil)
	cfg := testConfig(1, geo.Point{})
	cfg.Events = rec
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.AddPeer("localhost:9"); err != nil { // discard port: sends may fail
		t.Fatal(err)
	}
	if !n.removePeer("127.0.0.1:9") {
		t.Fatal("peer not removed")
	}
	_ = n.Close()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&sink)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[trace.Kind]int)
	for _, ev := range events {
		if ev.Peer != 1 || ev.Addr != "127.0.0.1:9" || ev.T < 0 {
			t.Errorf("event %+v: want peer 1, addr 127.0.0.1:9, protocol time", ev)
		}
		kinds[ev.Kind]++
	}
	if len(events) != 2 || kinds[trace.KindPeerAdd] != 1 || kinds[trace.KindPeerRemove] != 1 {
		t.Errorf("membership events = %v, want one peer_add and one peer_remove", kinds)
	}
}

// countingObserver tallies one node's protocol events. The node calls it
// from its read and gossip loops and from Issue, so it locks.
type countingObserver struct {
	core.BaseObserver
	mu                                          sync.Mutex
	issues, broadcasts, duplicates, expirations int
	firsts                                      map[ads.ID]int
}

func (o *countingObserver) OnIssue(int, *ads.Advertisement, float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.issues++
}

func (o *countingObserver) OnBroadcast(int, ads.ID, int, float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.broadcasts++
}

func (o *countingObserver) OnFirstReceive(_ int, ad *ads.Advertisement, _ float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.firsts[ad.ID]++
}

func (o *countingObserver) OnDuplicate(int, ads.ID, float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.duplicates++
}

func (o *countingObserver) OnExpire(int, ads.ID, float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.expirations++
}

// TestNodeObserverMatchesStats runs three ads through a six-node memnet
// cluster, each node hearing its neighbors two hops either side, until every
// ad has expired. Per node the events agree with the receive-side counters:
// a live arrival is a duplicate or a first receive, Issue's own first receive
// aside; each ad is first received once and, its cache never full, expires
// once.
func TestNodeObserverMatchesStats(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := ChainConfigs(6, 100, 250, 40*time.Millisecond)
	counts := make([]*countingObserver, len(cfgs))
	for i := range cfgs {
		counts[i] = &countingObserver{firsts: make(map[ads.ID]int)}
		cfgs[i].ListenAddr, cfgs[i].Transport, cfgs[i].Events = "mem:", sb.Transport(), counts[i]
	}
	c, err := NewCluster(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	var issued []ads.ID
	for _, i := range []int{0, 2, 5} {
		ad, err := c.Nodes[i].Issue(core.AdSpec{R: 1000, D: 3, Category: "petrol"})
		if err != nil {
			t.Fatal(err)
		}
		issued = append(issued, ad.ID)
	}
	for _, id := range issued {
		if !c.WaitAll(id, 2500*time.Millisecond) {
			t.Fatalf("ad %v never reached every node", id)
		}
	}
	cached := func() (k int) {
		for _, n := range c.Nodes {
			k += len(n.Cached())
		}
		return k
	}
	if !waitFor(t, 5*time.Second, func() bool { return cached() == 0 }) {
		t.Fatal("ads still cached past their duration")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		st, o := n.Stats(), counts[i]
		firsts := 0
		for _, id := range issued {
			if o.firsts[id] != 1 {
				t.Errorf("node %d: %d first receives of %v, want 1", i, o.firsts[id], id)
			}
			firsts += o.firsts[id]
		}
		if len(o.firsts) != len(issued) {
			t.Errorf("node %d: first receives of %d ads, %d issued", i, len(o.firsts), len(issued))
		}
		if uint64(o.duplicates) != st.Duplicates || uint64(o.broadcasts) != st.Broadcasts {
			t.Errorf("node %d: %d duplicate and %d broadcast events, Stats %d and %d",
				i, o.duplicates, o.broadcasts, st.Duplicates, st.Broadcasts)
		}
		if got := uint64(o.duplicates + firsts - o.issues); got != st.Received {
			t.Errorf("node %d: %d duplicates + %d first receives - %d issues = %d, Stats.Received %d",
				i, o.duplicates, firsts, o.issues, got, st.Received)
		}
		if o.expirations != len(issued) {
			t.Errorf("node %d: %d expire events, want one per ad", i, o.expirations)
		}
	}
	if c.TotalStats().Duplicates == 0 {
		t.Error("no duplicates: the duplicate path went untested")
	}
}
