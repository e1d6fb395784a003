package node

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"instantad/internal/obs"
)

// Stats is a snapshot of a live node's activity. Each field is one node_*
// instrument, declared once: its tags carry the JSON key, the metric name and
// the help string, and RegisterStats and Stats.Add are built from those rows.
// The last three fields are gauges, read on demand; every other field counts.
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

// counters are the node_* counters as plain atomics, so hot paths increment
// them without a lookup and a node that nobody serves keeps no registry. Each
// is named after its Stats field.
type counters struct {
	Sent, Broadcasts, Received, OutOfRange, Malformed, Duplicates, Expired obs.Counter
	ReadErrors, SendErrors, SeenPruned, PeerBackoffs                       obs.Counter
	BeaconsSent, BeaconsRecv, BeaconRelays, NeighborsExpired, EpochSkew    obs.Counter
	BatchesSent, BatchesRecv, BatchOversize                                obs.Counter
	DigestsSent, DigestsRecv, DigestHits                                   obs.Counter
	PullsSent, PullsRecv, PulledAds, BlockedServes, BudgetDeferred         obs.Counter
}

// statRow is one Stats field's instrument; rows are in Stats field order. A
// metric named *_total counts; any other is a level, exposed as a gauge.
type statRow struct {
	metric, help string
	gauge        bool
}

// statRows is Stats' tag table, read once at init. A field without metric
// and help tags panics here rather than going missing from a registry.
var statRows = func() []statRow {
	st := reflect.TypeOf(Stats{})
	rows := make([]statRow, st.NumField())
	for i := range rows {
		f := st.Field(i)
		r := statRow{metric: f.Tag.Get("metric"), help: f.Tag.Get("help")}
		if r.metric == "" || r.help == "" {
			panic(fmt.Sprintf("node: Stats.%s needs metric and help tags", f.Name))
		}
		r.gauge = !strings.HasSuffix(r.metric, "_total")
		rows[i] = r
	}
	return rows
}()

// RegisterStats registers one instrument per Stats field in reg, read from
// read at exposition time: a counter per count, a gauge per level. A served
// node registers its own Stats; a multi-node owner registers its totals.
func RegisterStats(reg *obs.Registry, read func() Stats) {
	for i, r := range statRows {
		get := func() uint64 {
			s := read()
			return reflect.ValueOf(&s).Elem().Field(i).Uint()
		}
		if r.gauge {
			reg.GaugeFunc(r.metric, r.help, func() float64 { return float64(get()) })
		} else {
			reg.CounterFunc(r.metric, r.help, get)
		}
	}
}

// Stats returns a snapshot of the node's counters and gauges.
func (n *Node) Stats() Stats {
	c := &n.ctr
	s := Stats{
		Sent: c.Sent.Value(), Broadcasts: c.Broadcasts.Value(), Received: c.Received.Value(),
		OutOfRange: c.OutOfRange.Value(), Malformed: c.Malformed.Value(),
		Duplicates: c.Duplicates.Value(), Expired: c.Expired.Value(),
		ReadErrors: c.ReadErrors.Value(), SendErrors: c.SendErrors.Value(),
		SeenPruned: c.SeenPruned.Value(), PeerBackoffs: c.PeerBackoffs.Value(),
		BeaconsSent: c.BeaconsSent.Value(), BeaconsRecv: c.BeaconsRecv.Value(),
		BeaconRelays: c.BeaconRelays.Value(), NeighborsExpired: c.NeighborsExpired.Value(),
		EpochSkew: c.EpochSkew.Value(), BatchesSent: c.BatchesSent.Value(),
		BatchesRecv: c.BatchesRecv.Value(), BatchOversize: c.BatchOversize.Value(),
		DigestsSent: c.DigestsSent.Value(), DigestsRecv: c.DigestsRecv.Value(),
		DigestHits: c.DigestHits.Value(), PullsSent: c.PullsSent.Value(),
		PullsRecv: c.PullsRecv.Value(), PulledAds: c.PulledAds.Value(),
		BlockedServes: c.BlockedServes.Value(), BudgetDeferred: c.BudgetDeferred.Value(),
		NeighborsLive: uint64(n.NeighborCount()),
	}
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	s.SeenLive = uint64(len(n.seen))
	for _, p := range n.peers {
		if !p.backoffUntil.After(now) { // outside a backoff window
			s.PeersLive++
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
