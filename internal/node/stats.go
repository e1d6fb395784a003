package node

import (
	"fmt"
	"reflect"

	"instantad/internal/obs"
)

// Stats is a snapshot of a live node's activity. Each field is one node_*
// instrument, declared once: its tags carry the JSON key, the registry name
// (metric) and the help string, and the registry, Node.Stats and Stats.Add
// are all built from those rows. The last three fields are gauges, read on
// demand; every other field counts.
type Stats struct {
	Sent             uint64 `json:"sent" metric:"node_sent_total" help:"ad datagrams transmitted (per peer destination)"`
	Broadcasts       uint64 `json:"broadcasts" metric:"node_broadcasts_total" help:"gossip decisions that fired (one per ad broadcast)"`
	Received         uint64 `json:"received" metric:"node_received_total" help:"ads accepted"`
	OutOfRange       uint64 `json:"out_of_range" metric:"node_out_of_range_total" help:"frames dropped by the virtual radio"`
	Malformed        uint64 `json:"malformed" metric:"node_malformed_total" help:"undecodable datagrams"`
	Duplicates       uint64 `json:"duplicates" metric:"node_duplicates_total" help:"ads already cached"`
	Expired          uint64 `json:"expired" metric:"node_expired_total" help:"ads dropped because they had expired"`
	ReadErrors       uint64 `json:"read_errors" metric:"node_read_errors_total" help:"transient socket read failures survived via backoff"`
	SendErrors       uint64 `json:"send_errors" metric:"node_send_errors_total" help:"failed datagram transmissions"`
	SeenPruned       uint64 `json:"seen_pruned" metric:"node_seen_pruned_total" help:"expired IDs swept from the dedup set"`
	PeerBackoffs     uint64 `json:"peer_backoffs" metric:"node_peer_backoffs_total" help:"times a peer entered timed backoff"`
	BeaconsSent      uint64 `json:"beacons_sent" metric:"node_beacons_sent_total" help:"HELLO datagrams transmitted"`
	BeaconsRecv      uint64 `json:"beacons_recv" metric:"node_beacons_recv_total" help:"HELLO datagrams accepted"`
	BeaconRelays     uint64 `json:"beacon_relays" metric:"node_beacon_relays_total" help:"first-hand introductions passed along"`
	NeighborsExpired uint64 `json:"neighbors_expired" metric:"node_neighbors_expired_total" help:"neighbors aged out by the TTL sweep"`
	EpochSkew        uint64 `json:"epoch_skew" metric:"node_epoch_skew_total" help:"beacons whose epoch hint disagreed with ours"`
	BatchesSent      uint64 `json:"batches_sent" metric:"node_batches_sent_total" help:"multi-ad batch frames transmitted (per peer destination)"`
	BatchesRecv      uint64 `json:"batches_recv" metric:"node_batches_recv_total" help:"multi-ad batch frames accepted"`
	BatchOversize    uint64 `json:"batch_oversize" metric:"node_batch_oversize_total" help:"single ads larger than the batch soft cap, shipped alone"`
	DigestsSent      uint64 `json:"digests_sent" metric:"node_digests_sent_total" help:"cache-digest frames transmitted (per peer destination)"`
	DigestsRecv      uint64 `json:"digests_recv" metric:"node_digests_recv_total" help:"cache-digest frames accepted"`
	DigestHits       uint64 `json:"digest_hits" metric:"node_digest_hits_total" help:"digests already fully covered by our cache (no pull needed)"`
	PullsSent        uint64 `json:"pulls_sent" metric:"node_pulls_sent_total" help:"pull requests transmitted for missing ad IDs"`
	PullsRecv        uint64 `json:"pulls_recv" metric:"node_pulls_recv_total" help:"pull requests accepted and served"`
	PulledAds        uint64 `json:"pulled_ads" metric:"node_pulled_ads_total" help:"ads served in response to pull requests"`
	BlockedServes    uint64 `json:"blocked_serves" metric:"node_blocked_serves_total" help:"pulls or digests skipped inside a peer's serve block window"`
	BudgetDeferred   uint64 `json:"budget_deferred" metric:"node_budget_deferred_total" help:"sends deferred because the per-round byte budget ran out"`
	SeenLive         uint64 `json:"seen_live" metric:"node_seen_live" help:"current dedup-set size"`
	PeersLive        uint64 `json:"peers_live" metric:"node_peers_live" help:"peers currently not in backoff"`
	NeighborsLive    uint64 `json:"neighbors_live" metric:"node_neighbors_live" help:"current neighbor-table size"`
}

// gauges reads the Stats fields that are levels rather than counts; each
// backs both its Stats field and its registry gauge.
var gauges = map[string]func(*Node) uint64{
	"SeenLive":      func(n *Node) uint64 { return uint64(n.SeenSize()) },
	"PeersLive":     func(n *Node) uint64 { return uint64(n.peersLive()) },
	"NeighborsLive": func(n *Node) uint64 { return uint64(n.NeighborCount()) },
}

// counters are the node_* counters as typed fields, so hot paths increment
// them without a lookup. Each is named after its Stats field; newCounters
// registers them from the tag rows.
type counters struct {
	Sent, Broadcasts, Received, OutOfRange, Malformed, Duplicates, Expired *obs.Counter
	ReadErrors, SendErrors, SeenPruned, PeerBackoffs                       *obs.Counter
	BeaconsSent, BeaconsRecv, BeaconRelays, NeighborsExpired, EpochSkew    *obs.Counter
	BatchesSent, BatchesRecv, BatchOversize                                *obs.Counter
	DigestsSent, DigestsRecv, DigestHits                                   *obs.Counter
	PullsSent, PullsRecv, PulledAds, BlockedServes, BudgetDeferred         *obs.Counter
}

// statRow is one Stats field's instrument; rows are in Stats field order.
type statRow struct {
	metric, help string
	counter      int                // field index in counters, or -1
	gauge        func(*Node) uint64 // nil for a counter
}

// statRows is Stats' tag table, read once at init. A field without a metric
// tag, or with neither or both of a counters namesake and a gauge reader,
// panics here rather than going missing from the registry.
var statRows = func() []statRow {
	st, ct := reflect.TypeOf(Stats{}), reflect.TypeOf(counters{})
	rows := make([]statRow, st.NumField())
	nctr := 0
	for i := range rows {
		f := st.Field(i)
		r := statRow{metric: f.Tag.Get("metric"), help: f.Tag.Get("help"), counter: -1, gauge: gauges[f.Name]}
		if c, ok := ct.FieldByName(f.Name); ok {
			r.counter = c.Index[0]
			nctr++
		}
		if r.metric == "" || r.help == "" || (r.counter < 0) == (r.gauge == nil) {
			panic(fmt.Sprintf("node: Stats.%s needs metric and help tags and exactly one counter or gauge", f.Name))
		}
		rows[i] = r
	}
	if nctr != ct.NumField() {
		panic("node: a counters field has no Stats namesake")
	}
	return rows
}()

// newCounters registers every node_* counter in reg, in Stats order.
func newCounters(reg *obs.Registry) counters {
	var c counters
	cv := reflect.ValueOf(&c).Elem()
	for _, r := range statRows {
		if r.gauge == nil {
			cv.Field(r.counter).Set(reflect.ValueOf(reg.Counter(r.metric, r.help)))
		}
	}
	return c
}

// registerGauges registers the node_* gauges in reg.
func (n *Node) registerGauges(reg *obs.Registry) {
	for _, r := range statRows {
		if get := r.gauge; get != nil {
			reg.GaugeFunc(r.metric, r.help, func() float64 { return float64(get(n)) })
		}
	}
}

// Stats returns a snapshot of the node's counters and gauges.
func (n *Node) Stats() Stats {
	var s Stats
	sv, cv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(n.ctr)
	for i, r := range statRows {
		if r.gauge != nil {
			sv.Field(i).SetUint(r.gauge(n))
		} else {
			sv.Field(i).SetUint(cv.Field(r.counter).Interface().(*obs.Counter).Value())
		}
	}
	return s
}

// Add accumulates s into t field by field (gauges included), so multi-node
// owners — clusters, fleets — aggregate one way.
func (t *Stats) Add(s Stats) {
	tv, sv := reflect.ValueOf(t).Elem(), reflect.ValueOf(s)
	for i := 0; i < tv.NumField(); i++ {
		f := tv.Field(i)
		f.SetUint(f.Uint() + sv.Field(i).Uint())
	}
}
