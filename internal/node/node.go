package node

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/fm"
	"instantad/internal/geo"
	"instantad/internal/node/discovery"
	"instantad/internal/obs"
	"instantad/internal/rng"
)

// PositionFunc reports the node's current position and velocity (a GPS in
// the paper's deployment).
type PositionFunc func(now time.Time) (geo.Point, geo.Vec)

// StaticPosition returns a PositionFunc pinned at p.
func StaticPosition(p geo.Point) PositionFunc {
	return func(time.Time) (geo.Point, geo.Vec) { return p, geo.Vec{} }
}

// Config parameterizes a live node.
type Config struct {
	// ID is the node's stable identity (the "MAC address" of ad IDs).
	ID uint32
	// ListenAddr is the address to bind, e.g. "127.0.0.1:0" (UDP) or
	// "mem:" (memnet auto-assign).
	ListenAddr string
	// Transport binds the socket and canonicalizes addresses; nil means
	// real UDP. The in-memory switchboard (internal/node/memnet) satisfies
	// the interface for many-node single-process tests.
	Transport Transport
	// Peers are static datagram destinations standing in for the broadcast
	// medium. With discovery enabled they are merely the initial peer set;
	// prefer Seeds there.
	Peers []string
	// Range is the virtual transmission range in meters; incoming packets
	// from senders farther than Range (per their advertised position) are
	// dropped. Zero disables the check (pure overlay mode).
	Range float64
	// Position provides the node's own kinematics; required.
	Position PositionFunc
	// Alpha and Beta are the paper's tuning parameters.
	Alpha, Beta float64
	// RoundTime is the gossip round Δt.
	RoundTime time.Duration
	// CacheK is the Store & Forward capacity.
	CacheK int
	// DIS, when positive, enables Optimization Mechanism (1) with that
	// annulus width.
	DIS float64
	// Opt2 enables the overhearing postponement (Mechanism 2).
	Opt2 bool
	// Seed drives the node's forwarding coin flips.
	Seed uint64
	// Popularity enables FM-sketch interest ranking (Section III.E); the
	// node's user ID for sketch hashing derives from ID.
	Popularity core.PopularityConfig
	// Interests are the node's interest keywords for ad matching.
	Interests []string

	// BeaconInterval, when positive, enables neighbor discovery: the node
	// periodically announces itself with a HELLO beacon and maintains a
	// TTL-expiring neighbor table that drives the peer set automatically.
	// Zero keeps the legacy static-peer mode.
	BeaconInterval time.Duration
	// NeighborTTL is how long a neighbor survives without being heard
	// before it is swept from the table (and the peer set). Zero means
	// 3 × BeaconInterval; when set it must exceed BeaconInterval.
	NeighborTTL time.Duration
	// Seeds are bootstrap contacts: beacons go to them only while the
	// neighbor table is empty (cold start and isolation recovery). A seed
	// may be a node address or, on a LAN, a subnet broadcast address.
	Seeds []string
	// AdvertiseAddr is the address put into outgoing beacons for others to
	// reach us at; empty means the bound socket address. Set it when
	// binding a wildcard address or behind a NAT.
	AdvertiseAddr string

	// BatchSoftCap is the target maximum size in bytes of an outgoing
	// multi-ad batch frame. Zero means the MTU-aware default (1400 bytes —
	// under a typical Ethernet path MTU, far below the 65507-byte hard
	// limit); a negative value disables batching entirely and reverts to
	// one legacy envelope per ad per peer. A single ad larger than the cap
	// is still shipped (alone) — datagrams cannot be fragmented here — and
	// counted in batch_oversize.
	BatchSoftCap int
	// DigestEvery, when positive, enables digest anti-entropy: every
	// DigestEvery gossip rounds the node sends its live cached ad-ID list
	// to its peers; receivers pull only the IDs they are missing, so
	// converged neighborhoods trade 8-byte IDs instead of full payloads.
	// Zero disables digests.
	DigestEvery int
	// BlockWindow is the BuddyCast-style serve block: after answering a
	// peer's pull, that peer's further pulls are dropped and our digests
	// skip it for this long, so one hungry neighbor cannot monopolize the
	// serve path. Zero means 4 × RoundTime when digests are enabled.
	BlockWindow time.Duration
	// RoundBytes, when positive, is the per-round byte budget for gossip
	// batches, digests and pull serves combined; sends beyond it are
	// deferred to the next round (counted in budget_deferred), so a hot
	// neighborhood degrades by slowing down instead of melting down. Zero
	// means unlimited.
	RoundBytes int

	// PeerFailLimit is the number of consecutive send failures after which
	// a peer enters timed backoff, so one dead address cannot burn a
	// syscall every gossip round. Zero means the default (3).
	PeerFailLimit int
	// PeerBackoffBase and PeerBackoffMax bound the exponential per-peer
	// backoff window: the first backoff lasts PeerBackoffBase and doubles
	// on each subsequent trip up to PeerBackoffMax. Zero means the
	// defaults (500ms and 30s).
	PeerBackoffBase, PeerBackoffMax time.Duration

	// Registry receives the node's instruments (node_* and, with discovery
	// enabled, discovery_*). Nil means the node creates a private registry,
	// reachable via Node.Registry. Registries are per-node: sharing one
	// between nodes would merge their counters.
	Registry *obs.Registry
	// Events, when non-nil, receives the node's lifecycle trace (peer
	// membership, discovery outcomes, backoff transitions) as JSONL.
	Events *EventRecorder
	// Logf, when non-nil, receives debug lines.
	Logf func(format string, args ...any)
}

func (c Config) validate() error {
	if c.ListenAddr == "" {
		return fmt.Errorf("node: empty listen address")
	}
	if c.Position == nil {
		return fmt.Errorf("node: nil position provider")
	}
	params := core.ProbParams{Alpha: c.Alpha, Beta: c.Beta}
	if err := params.Validate(); err != nil {
		return err
	}
	if c.RoundTime <= 0 {
		return fmt.Errorf("node: non-positive round time %v", c.RoundTime)
	}
	if c.CacheK < 1 {
		return fmt.Errorf("node: cache capacity %d < 1", c.CacheK)
	}
	if c.Range < 0 || c.DIS < 0 {
		return fmt.Errorf("node: negative range or DIS")
	}
	if c.BeaconInterval < 0 || c.NeighborTTL < 0 {
		return fmt.Errorf("node: negative beacon interval or neighbor TTL")
	}
	if c.BeaconInterval == 0 {
		if c.NeighborTTL > 0 {
			return fmt.Errorf("node: neighbor TTL without a beacon interval")
		}
		if len(c.Seeds) > 0 {
			return fmt.Errorf("node: seeds require a beacon interval")
		}
	} else if c.NeighborTTL > 0 && c.NeighborTTL <= c.BeaconInterval {
		return fmt.Errorf("node: neighbor TTL %v must exceed the beacon interval %v",
			c.NeighborTTL, c.BeaconInterval)
	}
	if len(c.AdvertiseAddr) > discovery.MaxAddrLen {
		return fmt.Errorf("node: advertise address longer than %d bytes", discovery.MaxAddrLen)
	}
	if c.BatchSoftCap > 0 && (c.BatchSoftCap < minBatchSoftCap || c.BatchSoftCap > maxPayload) {
		return fmt.Errorf("node: batch soft cap %d outside [%d, %d]", c.BatchSoftCap, minBatchSoftCap, maxPayload)
	}
	if c.DigestEvery < 0 {
		return fmt.Errorf("node: negative digest interval %d", c.DigestEvery)
	}
	if c.BlockWindow < 0 {
		return fmt.Errorf("node: negative block window %v", c.BlockWindow)
	}
	if c.RoundBytes < 0 {
		return fmt.Errorf("node: negative round byte budget %d", c.RoundBytes)
	}
	if c.PeerFailLimit < 0 {
		return fmt.Errorf("node: negative peer fail limit %d", c.PeerFailLimit)
	}
	if c.PeerBackoffBase < 0 || c.PeerBackoffMax < 0 {
		return fmt.Errorf("node: negative peer backoff")
	}
	return nil
}

// peerState is one datagram destination plus its send-health bookkeeping.
// The health fields are guarded by Node.mu; key never changes.
type peerState struct {
	key string // canonical addr string: the identity, the wire destination

	sent         uint64 // datagrams delivered to the socket (ads + beacons)
	failures     uint64 // total send failures
	consecFails  int    // failures since the last success
	backoffUntil time.Time
	nextBackoff  time.Duration
	inBackoff    bool // tripped and not yet succeeded again (event edge)

	// detached is set (under Node.mu) when the peer leaves the peer set;
	// in-flight sends must not mutate its health or trip backoff — the entry
	// is dead, only snapshots taken before the removal still hold it. Atomic
	// so sendTo can refuse a dead entry without taking the node lock.
	detached atomic.Bool
}

// PeerHealth is a point-in-time snapshot of one peer's send health.
type PeerHealth struct {
	Addr        string `json:"addr"`
	Sent        uint64 `json:"sent"`
	Failures    uint64 `json:"failures"`
	ConsecFails int    `json:"consec_fails"`
	InBackoff   bool   `json:"in_backoff"`
}

// Node is one live protocol participant.
type Node struct {
	cfg       Config
	params    core.ProbParams
	transport Transport
	conn      PacketConn

	// Discovery state: nil table means the legacy static-peer mode.
	table       *discovery.Table
	neighborTTL time.Duration
	advertise   string   // the address our beacons claim
	seeds       []string // canonical bootstrap contacts

	failLimit   int
	backoffBase time.Duration
	backoffMax  time.Duration

	// Wire-layer tuning, resolved from Config at construction.
	batchCap    int           // soft cap in bytes; 0 = batching disabled
	digestEvery int           // digest rounds; 0 = digests disabled
	blockWindow time.Duration // per-peer serve block
	roundBytes  int           // per-round byte budget; 0 = unlimited

	// readBackoffMin/Max bound the delay applied after transient socket
	// read errors (overridden by tests for speed).
	readBackoffMin time.Duration
	readBackoffMax time.Duration

	mu        sync.Mutex
	cache     *ads.Cache
	seen      map[ads.ID]float64 // ad ID → protocol-time expiry of that ad
	nextPrune float64            // protocol time of the next seen-set and serve-block sweep
	peers     []*peerState
	peerIndex map[string]*peerState // canonical key → entry of peers
	interests map[string]bool
	rnd       *rng.Stream
	nextSeq   uint32
	epoch     time.Time // protocol time zero: ages are seconds since epoch

	// nextExpiry is a protocol time no cached ad expires before: fireDue
	// skips the cache's expiry sweep while the clock is below it. Guarded by
	// mu.
	nextExpiry float64

	// Wire-layer round state, guarded by mu.
	nextDigest  float64              // protocol time of the next digest send
	budgetUsed  int                  // payload bytes spent this round window
	budgetReset float64              // protocol time the budget window rolls
	served      map[string]time.Time // addr → end of its serve block window

	reg         *obs.Registry
	events      *EventRecorder
	sendLatency *obs.Histogram
	recvLatency *obs.Histogram
	backoffDur  *obs.Histogram
	batchAds    *obs.Histogram // ads per sent batch frame
	batchBytes  *obs.Histogram // bytes per sent batch frame
	recvBatch   *obs.Histogram // ads per received batch frame
	digestIDs   *obs.Histogram // IDs per sent digest

	ctr       counters
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
	started   bool
}

// counters hold the node's activity counts as registry-backed instruments —
// the same lock-free atomics as before the obs refactor, but now they also
// expose through /metrics and snapshots. Stats reads them back, so the
// Stats surface is exactly the registry's view.
type counters struct {
	sent             *obs.Counter
	broadcasts       *obs.Counter
	received         *obs.Counter
	outOfRange       *obs.Counter
	malformed        *obs.Counter
	duplicates       *obs.Counter
	expired          *obs.Counter
	readErrors       *obs.Counter
	sendErrors       *obs.Counter
	seenPruned       *obs.Counter
	peerBackoffs     *obs.Counter
	beaconsSent      *obs.Counter
	beaconsRecv      *obs.Counter
	beaconRelays     *obs.Counter
	neighborsExpired *obs.Counter
	epochSkew        *obs.Counter
	batchesSent      *obs.Counter
	batchesRecv      *obs.Counter
	batchOversize    *obs.Counter
	digestsSent      *obs.Counter
	digestsRecv      *obs.Counter
	digestHits       *obs.Counter
	pullsSent        *obs.Counter
	pullsRecv        *obs.Counter
	pulledAds        *obs.Counter
	blockedServes    *obs.Counter
	budgetDeferred   *obs.Counter
}

// newCounters registers every node_* counter in reg.
func newCounters(reg *obs.Registry) counters {
	return counters{
		sent:             reg.Counter("node_sent_total", "ad datagrams transmitted (per peer destination)"),
		broadcasts:       reg.Counter("node_broadcasts_total", "gossip decisions that fired (one per ad broadcast)"),
		received:         reg.Counter("node_received_total", "envelopes accepted"),
		outOfRange:       reg.Counter("node_out_of_range_total", "frames dropped by the virtual radio"),
		malformed:        reg.Counter("node_malformed_total", "undecodable datagrams"),
		duplicates:       reg.Counter("node_duplicates_total", "envelopes for ads already cached"),
		expired:          reg.Counter("node_expired_total", "envelopes dropped because the ad had expired"),
		readErrors:       reg.Counter("node_read_errors_total", "transient socket read failures survived via backoff"),
		sendErrors:       reg.Counter("node_send_errors_total", "failed datagram transmissions"),
		seenPruned:       reg.Counter("node_seen_pruned_total", "expired IDs swept from the dedup set"),
		peerBackoffs:     reg.Counter("node_peer_backoffs_total", "times a peer entered timed backoff"),
		beaconsSent:      reg.Counter("node_beacons_sent_total", "HELLO datagrams transmitted"),
		beaconsRecv:      reg.Counter("node_beacons_recv_total", "HELLO datagrams accepted"),
		beaconRelays:     reg.Counter("node_beacon_relays_total", "first-hand introductions passed along"),
		neighborsExpired: reg.Counter("node_neighbors_expired_total", "neighbors aged out by the TTL sweep"),
		epochSkew:        reg.Counter("node_epoch_skew_total", "beacons whose epoch hint disagreed with ours"),
		batchesSent:      reg.Counter("node_batches_sent_total", "multi-ad batch frames transmitted (per peer destination)"),
		batchesRecv:      reg.Counter("node_batches_recv_total", "multi-ad batch frames accepted"),
		batchOversize:    reg.Counter("node_batch_oversize_total", "single ads larger than the batch soft cap, shipped alone"),
		digestsSent:      reg.Counter("node_digests_sent_total", "cache-digest frames transmitted (per peer destination)"),
		digestsRecv:      reg.Counter("node_digests_recv_total", "cache-digest frames accepted"),
		digestHits:       reg.Counter("node_digest_hits_total", "digests already fully covered by our cache (no pull needed)"),
		pullsSent:        reg.Counter("node_pulls_sent_total", "pull requests transmitted for missing ad IDs"),
		pullsRecv:        reg.Counter("node_pulls_recv_total", "pull requests accepted and served"),
		pulledAds:        reg.Counter("node_pulled_ads_total", "ads served in response to pull requests"),
		blockedServes:    reg.Counter("node_blocked_serves_total", "pulls or digests skipped inside a peer's serve block window"),
		budgetDeferred:   reg.Counter("node_budget_deferred_total", "sends deferred because the per-round byte budget ran out"),
	}
}

// Stats is a snapshot of a live node's activity.
type Stats struct {
	Sent             uint64 `json:"sent"`              // ad datagrams transmitted (per peer destination)
	Broadcasts       uint64 `json:"broadcasts"`        // gossip decisions that fired (one per ad broadcast)
	Received         uint64 `json:"received"`          // envelopes accepted
	OutOfRange       uint64 `json:"out_of_range"`      // frames dropped by the virtual radio
	Malformed        uint64 `json:"malformed"`         // undecodable datagrams
	Duplicates       uint64 `json:"duplicates"`        // envelopes for ads already cached
	Expired          uint64 `json:"expired"`           // envelopes dropped because the ad had expired
	ReadErrors       uint64 `json:"read_errors"`       // transient socket read failures survived via backoff
	SendErrors       uint64 `json:"send_errors"`       // failed datagram transmissions
	SeenPruned       uint64 `json:"seen_pruned"`       // expired IDs swept from the dedup set
	PeerBackoffs     uint64 `json:"peer_backoffs"`     // times a peer entered timed backoff
	BeaconsSent      uint64 `json:"beacons_sent"`      // HELLO datagrams transmitted
	BeaconsRecv      uint64 `json:"beacons_recv"`      // HELLO datagrams accepted
	BeaconRelays     uint64 `json:"beacon_relays"`     // first-hand introductions passed along
	NeighborsExpired uint64 `json:"neighbors_expired"` // neighbors aged out by the TTL sweep
	EpochSkew        uint64 `json:"epoch_skew"`        // beacons whose epoch hint disagreed with ours
	BatchesSent      uint64 `json:"batches_sent"`      // multi-ad batch frames transmitted (per peer destination)
	BatchesRecv      uint64 `json:"batches_recv"`      // multi-ad batch frames accepted
	BatchOversize    uint64 `json:"batch_oversize"`    // single ads larger than the soft cap, shipped alone
	DigestsSent      uint64 `json:"digests_sent"`      // cache-digest frames transmitted (per peer destination)
	DigestsRecv      uint64 `json:"digests_recv"`      // cache-digest frames accepted
	DigestHits       uint64 `json:"digest_hits"`       // digests fully covered by our cache (no pull needed)
	PullsSent        uint64 `json:"pulls_sent"`        // pull requests transmitted for missing ad IDs
	PullsRecv        uint64 `json:"pulls_recv"`        // pull requests accepted and served
	PulledAds        uint64 `json:"pulled_ads"`        // ads served in response to pull requests
	BlockedServes    uint64 `json:"blocked_serves"`    // pulls/digests skipped inside a serve block window
	BudgetDeferred   uint64 `json:"budget_deferred"`   // sends deferred by the per-round byte budget
	SeenLive         uint64 `json:"seen_live"`         // gauge: current dedup-set size (O(live ads))
	PeersLive        uint64 `json:"peers_live"`        // gauge: peers currently not in backoff
	NeighborsLive    uint64 `json:"neighbors_live"`    // gauge: current neighbor-table size
}

// Add accumulates s into t field by field (gauges included), so multi-node
// owners — clusters, fleets — aggregate one way.
func (t *Stats) Add(s Stats) {
	t.Sent += s.Sent
	t.Broadcasts += s.Broadcasts
	t.Received += s.Received
	t.OutOfRange += s.OutOfRange
	t.Malformed += s.Malformed
	t.Duplicates += s.Duplicates
	t.Expired += s.Expired
	t.ReadErrors += s.ReadErrors
	t.SendErrors += s.SendErrors
	t.SeenPruned += s.SeenPruned
	t.PeerBackoffs += s.PeerBackoffs
	t.BeaconsSent += s.BeaconsSent
	t.BeaconsRecv += s.BeaconsRecv
	t.BeaconRelays += s.BeaconRelays
	t.NeighborsExpired += s.NeighborsExpired
	t.EpochSkew += s.EpochSkew
	t.BatchesSent += s.BatchesSent
	t.BatchesRecv += s.BatchesRecv
	t.BatchOversize += s.BatchOversize
	t.DigestsSent += s.DigestsSent
	t.DigestsRecv += s.DigestsRecv
	t.DigestHits += s.DigestHits
	t.PullsSent += s.PullsSent
	t.PullsRecv += s.PullsRecv
	t.PulledAds += s.PulledAds
	t.BlockedServes += s.BlockedServes
	t.BudgetDeferred += s.BudgetDeferred
	t.SeenLive += s.SeenLive
	t.PeersLive += s.PeersLive
	t.NeighborsLive += s.NeighborsLive
}

const (
	defaultPeerFailLimit   = 3
	defaultPeerBackoffBase = 500 * time.Millisecond
	defaultPeerBackoffMax  = 30 * time.Second
	defaultReadBackoffMin  = 5 * time.Millisecond
	defaultReadBackoffMax  = time.Second
	// defaultTTLIntervals is the neighbor TTL in beacon intervals when
	// Config.NeighborTTL is zero: three missed beacons mean gone.
	defaultTTLIntervals = 3
	// epochSkewSlack is how far a beacon's epoch hint may sit from ours
	// before it is counted as a misconfiguration (seconds).
	epochSkewSlack = 1.0
)

// New binds the node's socket. Call Start to begin gossiping and Close to
// shut down.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr := cfg.Transport
	if tr == nil {
		tr = UDPTransport{}
	}
	conn, err := tr.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n := &Node{
		cfg:            cfg,
		params:         core.ProbParams{Alpha: cfg.Alpha, Beta: cfg.Beta},
		transport:      tr,
		conn:           conn,
		reg:            reg,
		events:         cfg.Events,
		ctr:            newCounters(reg),
		failLimit:      cfg.PeerFailLimit,
		backoffBase:    cfg.PeerBackoffBase,
		backoffMax:     cfg.PeerBackoffMax,
		readBackoffMin: defaultReadBackoffMin,
		readBackoffMax: defaultReadBackoffMax,
		cache:          ads.NewCache(cfg.CacheK),
		seen:           make(map[ads.ID]float64),
		served:         make(map[string]time.Time),
		nextExpiry:     math.Inf(1),
		peerIndex:      make(map[string]*peerState),
		interests:      make(map[string]bool, len(cfg.Interests)),
		rnd:            rng.New(cfg.Seed),
		epoch:          time.Now(),
		done:           make(chan struct{}),
	}
	if n.failLimit == 0 {
		n.failLimit = defaultPeerFailLimit
	}
	if n.backoffBase == 0 {
		n.backoffBase = defaultPeerBackoffBase
	}
	if n.backoffMax == 0 {
		n.backoffMax = defaultPeerBackoffMax
	}
	if n.backoffMax < n.backoffBase {
		n.backoffMax = n.backoffBase
	}
	// Resolve the wire-layer tuning: zero soft cap means the MTU-aware
	// default, negative disables batching (one legacy envelope per ad).
	switch {
	case cfg.BatchSoftCap < 0:
		n.batchCap = 0
	case cfg.BatchSoftCap == 0:
		n.batchCap = defaultBatchSoftCap
	default:
		n.batchCap = cfg.BatchSoftCap
	}
	n.digestEvery = cfg.DigestEvery
	n.blockWindow = cfg.BlockWindow
	if n.blockWindow == 0 && n.digestEvery > 0 {
		n.blockWindow = 4 * cfg.RoundTime
	}
	n.roundBytes = cfg.RoundBytes
	if n.digestEvery > 0 {
		// The first digest waits a full interval so cold caches settle.
		n.nextDigest = float64(n.digestEvery) * cfg.RoundTime.Seconds()
	}
	for _, k := range cfg.Interests {
		n.interests[k] = true
	}
	if cfg.BeaconInterval > 0 {
		n.neighborTTL = cfg.NeighborTTL
		if n.neighborTTL == 0 {
			n.neighborTTL = defaultTTLIntervals * cfg.BeaconInterval
		}
		n.table = discovery.NewTable(n.neighborTTL)
		n.advertise = cfg.AdvertiseAddr
		if n.advertise == "" {
			n.advertise = conn.LocalAddr()
		}
		for _, s := range cfg.Seeds {
			key, err := tr.Resolve(s)
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("node: seed %q: %w", s, err)
			}
			n.seeds = append(n.seeds, key)
		}
	}
	for _, p := range cfg.Peers {
		key, err := tr.Resolve(p)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("node: peer %q: %w", p, err)
		}
		n.addPeerLocked(key)
	}
	n.sendLatency = reg.Histogram("node_send_latency_seconds",
		"time one datagram transmission spent in the socket write",
		obs.ExpBuckets(1e-6, 4, 12))
	n.recvLatency = reg.Histogram("node_receive_latency_seconds",
		"time from datagram arrival to full protocol integration",
		obs.ExpBuckets(1e-6, 4, 12))
	n.backoffDur = reg.Histogram("node_peer_backoff_seconds",
		"duration of each peer backoff window entered",
		obs.ExpBuckets(0.05, 2, 12))
	n.batchAds = reg.Histogram("node_batch_ads",
		"ads packed into each transmitted batch frame",
		obs.ExpBuckets(1, 2, 10))
	n.batchBytes = reg.Histogram("node_batch_bytes",
		"payload bytes of each transmitted batch frame",
		obs.ExpBuckets(64, 2, 11))
	n.recvBatch = reg.Histogram("node_recv_batch_ads",
		"ads carried by each accepted batch frame",
		obs.ExpBuckets(1, 2, 10))
	n.digestIDs = reg.Histogram("node_digest_ids",
		"ad IDs carried by each transmitted digest frame",
		obs.ExpBuckets(1, 2, 12))
	reg.GaugeFunc("node_seen_live", "current dedup-set size",
		func() float64 { return float64(n.SeenSize()) })
	reg.GaugeFunc("node_peers_live", "peers currently not in backoff",
		func() float64 { return float64(n.peersLive()) })
	reg.GaugeFunc("node_neighbors_live", "current neighbor-table size",
		func() float64 { return float64(n.NeighborCount()) })
	if n.table != nil {
		n.table.InstrumentWith(reg)
	}
	return n, nil
}

// Registry returns the node's instrument registry — the Config.Registry it
// was given, or the private one it built.
func (n *Node) Registry() *obs.Registry { return n.reg }

// peersLive counts peers currently outside a backoff window (the
// node_peers_live gauge and Stats.PeersLive).
func (n *Node) peersLive() int {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	live := 0
	for _, p := range n.peers {
		if !p.backoffUntil.After(now) {
			live++
		}
	}
	return live
}

// event emits one lifecycle event when an EventRecorder is configured. Safe
// to call with n.mu held: the recorder's lock nests strictly inside.
func (n *Node) event(kind, peer string, id uint32, detail string) {
	if n.events == nil {
		return
	}
	n.events.Record(NodeEvent{Kind: kind, Peer: peer, ID: id, Detail: detail})
}

// Addr returns the bound listen address (useful with port 0).
func (n *Node) Addr() string { return n.conn.LocalAddr() }

// AddPeer adds a datagram destination at runtime. Peers are identified by
// their canonical resolved address: re-adding an existing peer (under any
// equivalent spelling) is a no-op that preserves its send-health state.
func (n *Node) AddPeer(addr string) error {
	key, err := n.transport.Resolve(addr)
	if err != nil {
		return fmt.Errorf("node: peer %q: %w", addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addPeerLocked(key)
	return nil
}

// addPeerLocked inserts a peer by canonical key, deduplicating: an existing
// entry is returned untouched so a re-add cannot double-send datagrams or
// reset accumulated health. Callers hold n.mu (or own the node exclusively,
// as New does).
func (n *Node) addPeerLocked(key string) *peerState {
	if p := n.peerIndex[key]; p != nil {
		return p
	}
	p := &peerState{key: key}
	n.peers = append(n.peers, p)
	n.peerIndex[key] = p
	n.event("peer_add", key, 0, "")
	return p
}

// RemovePeer drops a datagram destination at runtime, reporting whether a
// matching peer existed. The address is matched by its resolved canonical
// form, so "localhost:7001" removes a peer added as "127.0.0.1:7001".
func (n *Node) RemovePeer(addr string) bool {
	key := addr
	if k, err := n.transport.Resolve(addr); err == nil {
		key = k
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peerIndex[key]
	if p == nil {
		return false
	}
	// Mark the entry detached under the same lock that removes it: send
	// paths holding a pre-removal snapshot must stop mutating its health.
	p.detached.Store(true)
	delete(n.peerIndex, key)
	kept := n.peers[:0]
	for _, q := range n.peers {
		if q.key != key {
			kept = append(kept, q)
		}
	}
	n.peers = kept
	n.event("peer_remove", key, 0, "")
	return true
}

// Peers returns a snapshot of every peer's send health.
func (n *Node) Peers() []PeerHealth {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]PeerHealth, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, PeerHealth{
			Addr:        p.key,
			Sent:        p.sent,
			Failures:    p.failures,
			ConsecFails: p.consecFails,
			InBackoff:   p.backoffUntil.After(now),
		})
	}
	return out
}

// Neighbors returns a snapshot of the discovery neighbor table, sorted by
// node ID. It is nil when discovery is disabled.
func (n *Node) Neighbors() []discovery.Neighbor {
	if n.table == nil {
		return nil
	}
	return n.table.Snapshot()
}

// NeighborCount returns the current neighbor-table size (0 when discovery
// is disabled).
func (n *Node) NeighborCount() int {
	if n.table == nil {
		return 0
	}
	return n.table.Len()
}

// Start launches the receive loop, the gossip scheduler, and (with
// discovery enabled) the beacon announcer.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		panic("node: Start called twice")
	}
	n.started = true
	n.mu.Unlock()
	n.wg.Add(2)
	go n.readLoop()
	go n.gossipLoop()
	if n.table != nil {
		n.wg.Add(1)
		go n.beaconLoop()
	}
}

// Close stops the node and releases the socket. It is idempotent and safe to
// call from any number of goroutines concurrently; every call returns the
// same result.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.closeErr = n.conn.Close()
		n.wg.Wait()
	})
	return n.closeErr
}

// closed reports whether shutdown has begun.
func (n *Node) closed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// now returns the protocol clock: seconds since the node's epoch. Ads issued
// by any node in the same deployment must share an epoch convention; for
// loopback clusters, construct all nodes at roughly the same time or issue
// with explicit ages.
func (n *Node) now() float64 { return time.Since(n.epoch).Seconds() }

// SetEpoch aligns the node's protocol clock with a shared zero point. Call
// before Start on every node of a cluster.
func (n *Node) SetEpoch(t time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch = t
}

// epochUnix returns the epoch as Unix seconds — the beacon's epoch hint.
func (n *Node) epochUnix() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return float64(n.epoch.UnixNano()) / 1e9
}

// Issue injects a new advertisement at the node's current position and
// broadcasts it once.
func (n *Node) Issue(spec core.AdSpec) (*ads.Advertisement, error) {
	pos, _ := n.cfg.Position(time.Now())
	n.mu.Lock()
	// A hostile or buggy peer may have flooded forged ads under our issuer
	// identity; skip any sequence number already occupied so the cache
	// insert below cannot collide (and panic).
	for n.cache.Get(ads.ID{Issuer: n.cfg.ID, Seq: n.nextSeq}) != nil {
		n.nextSeq++
	}
	ad := &ads.Advertisement{
		ID:       ads.ID{Issuer: n.cfg.ID, Seq: n.nextSeq},
		Origin:   pos,
		IssuedAt: n.now(),
		R:        spec.R,
		D:        spec.D,
		Category: spec.Category,
		Keywords: spec.Keywords,
		Text:     spec.Text,
	}
	n.nextSeq++
	if err := ad.Validate(); err != nil {
		n.mu.Unlock()
		return nil, err
	}
	if n.cfg.Popularity.Enabled {
		pc := n.cfg.Popularity
		if pc.F == 0 {
			pc.F = 8
		}
		if pc.L == 0 {
			pc.L = 32
		}
		ad.Sketch = fm.New(pc.F, pc.L, pc.SketchSeed)
	}
	n.markSeenLocked(ad)
	own := ad.Clone()
	n.applyPopularityLocked(own)
	n.admitLocked(own, pos, n.now())
	// Clone before releasing the lock: the cached entry (own) may be
	// mutated by handle merging duplicates the moment mu drops, and
	// broadcast reads the ad outside the lock. fireDue clones for the same
	// reason.
	wire := own.Clone()
	n.mu.Unlock()
	n.broadcast(wire)
	return ad, nil
}

// markSeenLocked records the ad in the dedup set, keyed to the ad's expiry
// on the protocol clock so the sweep in pruneSeenLocked can bound the set by
// the live-ad population. Duplicates may carry an enlarged D; keep the
// latest expiry. Callers hold n.mu.
func (n *Node) markSeenLocked(ad *ads.Advertisement) {
	exp := ad.IssuedAt + ad.D
	if old, ok := n.seen[ad.ID]; !ok || exp > old {
		n.seen[ad.ID] = exp
	}
}

// pruneSeenLocked sweeps expired IDs out of the dedup set at most once per
// gossip round, keeping it O(live ads) instead of O(all ads ever heard).
// An ID is swept the first sweep after its expiry — straggler duplicates of
// a just-expired ad are dropped by the expiry check either way, so keeping
// them a grace round (as an earlier revision did) only misreported them as
// live. Lapsed serve blocks go in the same sweep: servedBlocked ignores them
// anyway, so once a round is often enough to bound the map. Callers hold
// n.mu.
func (n *Node) pruneSeenLocked(now float64) {
	if now < n.nextPrune {
		return
	}
	n.nextPrune = now + n.cfg.RoundTime.Seconds()
	for id, exp := range n.seen {
		if exp < now {
			delete(n.seen, id)
			n.ctr.seenPruned.Add(1)
		}
	}
	wall := time.Now()
	for addr, until := range n.served {
		if !until.After(wall) {
			delete(n.served, addr)
		}
	}
}

// Has reports whether the node has heard the given ad and the ad is still
// live on the protocol clock. The stored expiry is consulted directly: an
// expired ad reports false even before the next sweep removes its ID.
func (n *Node) Has(id ads.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	exp, ok := n.seen[id]
	return ok && n.now() <= exp
}

// SeenSize returns the current size of the dedup set (the SeenLive gauge).
func (n *Node) SeenSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.seen)
}

// Cached returns copies of the currently cached ads.
func (n *Node) Cached() []*ads.Advertisement {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*ads.Advertisement, 0, n.cache.Len())
	for _, e := range n.cache.Entries() {
		out = append(out, e.Ad.Clone())
	}
	return out
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	s := Stats{
		Sent:             n.ctr.sent.Value(),
		Broadcasts:       n.ctr.broadcasts.Value(),
		Received:         n.ctr.received.Value(),
		OutOfRange:       n.ctr.outOfRange.Value(),
		Malformed:        n.ctr.malformed.Value(),
		Duplicates:       n.ctr.duplicates.Value(),
		Expired:          n.ctr.expired.Value(),
		ReadErrors:       n.ctr.readErrors.Value(),
		SendErrors:       n.ctr.sendErrors.Value(),
		SeenPruned:       n.ctr.seenPruned.Value(),
		PeerBackoffs:     n.ctr.peerBackoffs.Value(),
		BeaconsSent:      n.ctr.beaconsSent.Value(),
		BeaconsRecv:      n.ctr.beaconsRecv.Value(),
		BeaconRelays:     n.ctr.beaconRelays.Value(),
		NeighborsExpired: n.ctr.neighborsExpired.Value(),
		EpochSkew:        n.ctr.epochSkew.Value(),
		BatchesSent:      n.ctr.batchesSent.Value(),
		BatchesRecv:      n.ctr.batchesRecv.Value(),
		BatchOversize:    n.ctr.batchOversize.Value(),
		DigestsSent:      n.ctr.digestsSent.Value(),
		DigestsRecv:      n.ctr.digestsRecv.Value(),
		DigestHits:       n.ctr.digestHits.Value(),
		PullsSent:        n.ctr.pullsSent.Value(),
		PullsRecv:        n.ctr.pullsRecv.Value(),
		PulledAds:        n.ctr.pulledAds.Value(),
		BlockedServes:    n.ctr.blockedServes.Value(),
		BudgetDeferred:   n.ctr.budgetDeferred.Value(),
	}
	if n.table != nil {
		s.NeighborsLive = uint64(n.table.Len())
	}
	now := time.Now()
	n.mu.Lock()
	s.SeenLive = uint64(len(n.seen))
	for _, p := range n.peers {
		if !p.backoffUntil.After(now) {
			s.PeersLive++
		}
	}
	n.mu.Unlock()
	return s
}

// forwardProbLocked evaluates the configured probability function. Callers
// hold n.mu.
func (n *Node) forwardProbLocked(ad *ads.Advertisement, pos geo.Point) float64 {
	d := pos.Dist(ad.Origin)
	age := ad.Age(n.now())
	if n.cfg.DIS > 0 {
		return core.ForwardProbOpt1(n.params, d, ad.R, ad.D, age, n.cfg.DIS)
	}
	return core.ForwardProb(n.params, d, ad.R, ad.D, age)
}

// evictLocked refreshes probabilities and drops the lowest entry.
func (n *Node) evictLocked() {
	pos, _ := n.cfg.Position(time.Now())
	n.cache.ForEach(func(e *ads.Entry) {
		e.Prob = n.forwardProbLocked(e.Ad, pos)
	})
	n.cache.EvictLowest()
}

// readLoop receives, filters and integrates datagrams — ad envelopes and
// HELLO beacons share the socket and are dispatched on their leading magic
// byte. Read errors are classified: a closed socket ends the loop, anything
// else is treated as transient and retried under capped exponential backoff
// so a persistent socket fault cannot hot-spin a core or flood the log.
func (n *Node) readLoop() {
	defer n.wg.Done()
	var backoff time.Duration
	for {
		data, from, err := n.conn.ReadFrom()
		if err != nil {
			if n.closed() || errors.Is(err, net.ErrClosed) {
				return
			}
			n.ctr.readErrors.Add(1)
			if backoff == 0 {
				backoff = n.readBackoffMin
			} else {
				backoff *= 2
				if backoff > n.readBackoffMax {
					backoff = n.readBackoffMax
				}
			}
			n.logf("read error (retry in %v): %v", backoff, err)
			select {
			case <-n.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		if len(data) == 0 {
			n.ctr.malformed.Add(1)
			continue
		}
		switch data[0] {
		case discovery.BeaconMagic:
			n.handleBeacon(data, from)
		case batchMagic:
			start := time.Now()
			n.handleBatch(data)
			n.recvLatency.Observe(time.Since(start).Seconds())
		case digestMagic:
			n.handleDigest(data, from)
		case pullMagic:
			n.handlePull(data, from)
		default:
			env, err := decodeEnvelope(data)
			if err != nil {
				n.ctr.malformed.Add(1)
				continue
			}
			start := time.Now()
			n.handle(env)
			n.recvLatency.Observe(time.Since(start).Seconds())
		}
	}
}

// handle applies the virtual radio and the paper's receive algorithm to one
// legacy single-ad envelope.
func (n *Node) handle(env *envelope) {
	pos, vel := n.cfg.Position(time.Now())
	if n.cfg.Range > 0 && pos.Dist(env.Pos) > n.cfg.Range {
		n.ctr.outOfRange.Add(1)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.integrateAdLocked(n.now(), env.Pos, pos, vel, env.Ad)
}

// handleBatch decodes a multi-ad batch frame, applies the virtual radio once
// for the whole frame (all ads share the sender's position), and integrates
// every carried ad under one lock acquisition.
func (n *Node) handleBatch(data []byte) {
	f, err := decodeBatch(data)
	if err != nil {
		n.ctr.malformed.Add(1)
		return
	}
	pos, vel := n.cfg.Position(time.Now())
	if n.cfg.Range > 0 && pos.Dist(f.Pos) > n.cfg.Range {
		n.ctr.outOfRange.Add(1)
		return
	}
	n.ctr.batchesRecv.Add(1)
	n.recvBatch.Observe(float64(len(f.Ads)))
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	for _, ad := range f.Ads {
		n.integrateAdLocked(now, f.Pos, pos, vel, ad)
	}
}

// integrateAdLocked is the paper's receive algorithm for one ad heard at
// protocol time now from a sender at srcPos: expiry check, dedup-set mark,
// duplicate merge (R/D/sketch, Opt2 postponement), or cache admission.
// Callers hold n.mu and have already applied the virtual radio.
func (n *Node) integrateAdLocked(now float64, srcPos geo.Point, pos geo.Point, vel geo.Vec, ad *ads.Advertisement) {
	if ad.Expired(now) {
		n.ctr.expired.Add(1)
		return
	}
	n.ctr.received.Add(1)
	n.markSeenLocked(ad)
	if e := n.cache.Get(ad.ID); e != nil {
		n.ctr.duplicates.Add(1)
		if ad.R > e.Ad.R {
			e.Ad.R = ad.R
		}
		if ad.D > e.Ad.D {
			e.Ad.D = ad.D
			n.markSeenLocked(e.Ad)
		}
		if e.Ad.Sketch != nil && ad.Sketch != nil {
			_ = e.Ad.Sketch.Merge(ad.Sketch)
		}
		if n.cfg.Opt2 {
			// Formula 4 with the real overlap and approach angle.
			p := geo.OverlapFraction(n.cfg.Range, pos.Dist(srcPos))
			theta := geo.AngleBetween(vel, srcPos.Sub(pos))
			e.ScheduledAt += core.PostponeInterval(n.cfg.RoundTime.Seconds(), p, theta)
		}
		return
	}
	own := ad.Clone()
	n.applyPopularityLocked(own)
	n.admitLocked(own, pos, now)
}

// admitLocked caches a new ad: first gossip one round from now, the expiry
// bound lowered to cover it, and — on overflow — the paper's eviction.
// Callers hold n.mu.
func (n *Node) admitLocked(own *ads.Advertisement, pos geo.Point, now float64) {
	e, overflow := n.cache.Insert(own, n.forwardProbLocked(own, pos))
	e.ScheduledAt = now + n.cfg.RoundTime.Seconds()
	if b := expiryBound(own); b < n.nextExpiry {
		n.nextExpiry = b
	}
	if overflow {
		n.evictLocked()
	}
}

// expiryBound returns a protocol time before which ad cannot be Expired:
// IssuedAt + D less a slack that dwarfs the rounding by which that sum and
// Expired's own now − IssuedAt > D can disagree. IssuedAt is fixed and D only
// grows (duplicate merge, Enlarge), so a bound taken once stays a lower
// bound — at worst a sweep starts early, and Expired still decides.
func expiryBound(ad *ads.Advertisement) float64 {
	return ad.IssuedAt + ad.D - 1e-9*(1+math.Abs(ad.IssuedAt)+ad.D)
}

// expireLocked drops expired ads from the cache — they just vanish. The
// walk is skipped while no cached ad can have expired; each walk recomputes
// that bound from what stays. Callers hold n.mu.
func (n *Node) expireLocked(now float64) {
	if now < n.nextExpiry {
		return
	}
	n.cache.RemoveExpired(now)
	n.nextExpiry = math.Inf(1)
	n.cache.ForEach(func(e *ads.Entry) {
		if b := expiryBound(e.Ad); b < n.nextExpiry {
			n.nextExpiry = b
		}
	})
}

// handleDigest answers a neighbor's cache digest: any advertised ID we have
// not heard (or whose copy we heard has expired) goes into a pull request
// back to the sender. A digest we fully cover is a digest hit — the
// anti-entropy steady state where neighbors trade 8-byte IDs instead of
// payloads.
func (n *Node) handleDigest(data []byte, from string) {
	f, err := decodeIDFrame(data, digestMagic)
	if err != nil {
		n.ctr.malformed.Add(1)
		return
	}
	pos, _ := n.cfg.Position(time.Now())
	if n.cfg.Range > 0 && pos.Dist(f.Pos) > n.cfg.Range {
		n.ctr.outOfRange.Add(1)
		return
	}
	n.ctr.digestsRecv.Add(1)
	n.mu.Lock()
	now := n.now()
	var missing []ads.ID
	for _, id := range f.IDs {
		if exp, ok := n.seen[id]; ok && now <= exp {
			continue
		}
		missing = append(missing, id)
		if len(missing) == maxIDsPerFrame {
			break
		}
	}
	n.mu.Unlock()
	if len(missing) == 0 {
		n.ctr.digestHits.Add(1)
		return
	}
	pf := idFrame{Sender: n.cfg.ID, Pos: pos, IDs: missing}
	out, err := pf.encode(pullMagic)
	if err != nil {
		n.logf("pull encode: %v", err)
		return
	}
	if !n.takeBudget(len(out)) {
		n.ctr.budgetDeferred.Add(1)
		return
	}
	if n.sendToAddr(out, from) {
		n.ctr.pullsSent.Add(1)
	}
}

// handlePull serves a neighbor's pull request with the requested ads from
// our cache, packed into batch frames, then blocks that neighbor for the
// serve window (BuddyCast-style) so one hungry peer cannot monopolize us.
func (n *Node) handlePull(data []byte, from string) {
	f, err := decodeIDFrame(data, pullMagic)
	if err != nil {
		n.ctr.malformed.Add(1)
		return
	}
	pos, vel := n.cfg.Position(time.Now())
	if n.cfg.Range > 0 && pos.Dist(f.Pos) > n.cfg.Range {
		n.ctr.outOfRange.Add(1)
		return
	}
	now := time.Now()
	if n.servedBlocked(from, now) {
		n.ctr.blockedServes.Add(1)
		return
	}
	n.mu.Lock()
	var serve []*ads.Advertisement
	for _, id := range f.IDs {
		if e := n.cache.Get(id); e != nil {
			serve = append(serve, e.Ad.Clone())
		}
	}
	if len(serve) > 0 && n.blockWindow > 0 {
		n.served[from] = now.Add(n.blockWindow)
	}
	n.mu.Unlock()
	n.ctr.pullsRecv.Add(1)
	if len(serve) == 0 {
		return
	}
	softCap := n.batchCap
	if softCap == 0 {
		// Pull serves are always batched, even when round gossip is not.
		softCap = defaultBatchSoftCap
	}
	frames, oversize := packBatches(n.cfg.ID, pos, vel, serve, softCap)
	if oversize > 0 {
		n.ctr.batchOversize.Add(uint64(oversize))
	}
	for _, fr := range frames {
		if !n.takeBudget(len(fr.data)) {
			n.ctr.budgetDeferred.Add(1)
			continue
		}
		if n.sendToAddr(fr.data, from) {
			n.ctr.sent.Add(1)
			n.ctr.batchesSent.Add(1)
			n.ctr.pulledAds.Add(uint64(fr.ads))
			n.batchAds.Observe(float64(fr.ads))
			n.batchBytes.Observe(float64(len(fr.data)))
		}
	}
}

// servedBlocked reports whether addr sits inside its serve block window.
func (n *Node) servedBlocked(addr string, now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	until, ok := n.served[addr]
	return ok && until.After(now)
}

// takeBudget claims nb bytes of the per-round send budget, rolling the
// window on the protocol clock. Unlimited (roundBytes == 0) always grants.
func (n *Node) takeBudget(nb int) bool {
	if n.roundBytes <= 0 {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	if now >= n.budgetReset {
		n.budgetUsed = 0
		n.budgetReset = now + n.cfg.RoundTime.Seconds()
	}
	if n.budgetUsed+nb > n.roundBytes {
		return false
	}
	n.budgetUsed += nb
	return true
}

// handleBeacon integrates one HELLO datagram: virtual radio first, then the
// neighbor table, then membership — a first-heard neighbor is added to the
// peer set, introduced to the rest of the neighborhood (when heard
// first-hand), and answered with our own beacon so the pairwise link forms
// in one exchange instead of one interval.
func (n *Node) handleBeacon(data []byte, from string) {
	b, err := discovery.DecodeBeacon(data)
	if err != nil {
		n.ctr.malformed.Add(1)
		return
	}
	if n.table == nil || b.ID == n.cfg.ID {
		// Discovery disabled, or our own beacon echoed back (a seed list
		// containing ourselves, a relayed introduction): drop quietly.
		return
	}
	pos, _ := n.cfg.Position(time.Now())
	if n.cfg.Range > 0 && pos.Dist(b.Pos) > n.cfg.Range {
		n.ctr.outOfRange.Add(1)
		return
	}
	key, err := n.transport.Resolve(b.Addr)
	if err != nil {
		// A beacon claiming an unroutable address is useless to us.
		n.ctr.malformed.Add(1)
		return
	}
	n.ctr.beaconsRecv.Add(1)
	if skew := b.Epoch - n.epochUnix(); skew > epochSkewSlack || skew < -epochSkewSlack {
		n.ctr.epochSkew.Add(1)
		n.logf("neighbor %d epoch differs from ours by %.1fs: ad ages will disagree", b.ID, skew)
	}
	b.Addr = key
	ev, prevAddr := n.table.Observe(b, time.Now())
	switch ev {
	case discovery.New:
		n.event("neighbor_new", key, b.ID, "")
		n.mu.Lock()
		n.addPeerLocked(key)
		n.mu.Unlock()
		n.logf("discovered neighbor %d at %s", b.ID, key)
		// Only first-hand beacons are relayed: an introduction of an
		// introduction would echo around the mesh forever.
		if from == key {
			n.relayIntroduction(data, key)
		}
		n.beaconBack(key)
	case discovery.AddrChanged:
		n.event("neighbor_addr_changed", key, b.ID, prevAddr)
		n.mu.Lock()
		if old := n.peerIndex[prevAddr]; old != nil {
			old.detached.Store(true)
			delete(n.peerIndex, prevAddr)
			kept := n.peers[:0]
			for _, p := range n.peers {
				if p.key != prevAddr {
					kept = append(kept, p)
				}
			}
			n.peers = kept
		}
		n.addPeerLocked(key)
		n.mu.Unlock()
		n.logf("neighbor %d moved %s → %s", b.ID, prevAddr, key)
	case discovery.Refreshed:
		n.event("neighbor_refreshed", key, b.ID, "")
	}
}

// relayIntroduction passes a first-heard beacon along to every other live
// peer. With unicast datagrams standing in for a broadcast medium this is
// what makes discovery transitive: a newcomer announces to one seed and the
// seed's relays introduce it to the whole neighborhood; receivers then greet
// the newcomer directly and the mesh closes over the next interval.
func (n *Node) relayIntroduction(data []byte, origin string) {
	now := time.Now()
	n.mu.Lock()
	targets := make([]*peerState, 0, len(n.peers))
	for _, p := range n.peers {
		if p.key == origin || p.backoffUntil.After(now) {
			continue
		}
		targets = append(targets, p)
	}
	n.mu.Unlock()
	for _, p := range targets {
		if n.sendTo(data, p) {
			n.ctr.beaconRelays.Add(1)
		}
	}
}

// beaconBack answers a newly discovered neighbor with our own beacon so it
// learns us without waiting for our next scheduled announcement.
func (n *Node) beaconBack(key string) {
	data, ok := n.encodeBeacon()
	if !ok {
		return
	}
	n.mu.Lock()
	p := n.peerIndex[key]
	n.mu.Unlock()
	if p == nil {
		return
	}
	if n.sendTo(data, p) {
		n.ctr.beaconsSent.Add(1)
	}
}

// applyPopularityLocked mirrors Algorithm 5 on a live node: match, hash the
// node's user identity into the sketches, enlarge on a visible rank rise.
// Callers hold n.mu.
func (n *Node) applyPopularityLocked(ad *ads.Advertisement) {
	if !n.cfg.Popularity.Enabled || ad.Sketch == nil || !ad.MatchesAny(n.interests) {
		return
	}
	before := ad.Sketch.Rank()
	if !ad.Sketch.Add(uint64(n.cfg.ID) + 1) {
		return
	}
	after := ad.Sketch.Rank()
	if after > before {
		core.Enlarge(ad, after, n.cfg.Popularity)
	}
}

// gossipLoop fires due cache entries. With Opt2 each entry has its own
// postponable schedule; without, entries still carry per-entry times that
// simply advance by one round each firing — equivalent to round gossip with
// a per-ad phase.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	tick := n.cfg.RoundTime / 5
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
			n.fireDue()
		}
	}
}

// beaconLoop announces the node every BeaconInterval, starting immediately
// so a cold-started node reaches its seeds without waiting a full interval.
func (n *Node) beaconLoop() {
	defer n.wg.Done()
	n.sendBeacon()
	ticker := time.NewTicker(n.cfg.BeaconInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
			n.sendBeacon()
		}
	}
}

// encodeBeacon builds the node's current HELLO frame.
func (n *Node) encodeBeacon() ([]byte, bool) {
	pos, vel := n.cfg.Position(time.Now())
	b := discovery.Beacon{
		ID:    n.cfg.ID,
		Addr:  n.advertise,
		Pos:   pos,
		Vel:   vel,
		Range: n.cfg.Range,
		Epoch: n.epochUnix(),
	}
	data, err := b.Encode()
	if err != nil {
		n.logf("beacon encode: %v", err)
		return nil, false
	}
	return data, true
}

// sendBeacon announces the node to every live peer — plus the seeds while
// the neighbor table is empty, which is both the cold-start bootstrap and
// the isolation recovery: a node whose whole neighborhood aged out goes
// back to knocking on its configured doors.
func (n *Node) sendBeacon() {
	data, ok := n.encodeBeacon()
	if !ok {
		return
	}
	now := time.Now()
	n.mu.Lock()
	targets := make([]*peerState, 0, len(n.peers))
	for _, p := range n.peers {
		if p.backoffUntil.After(now) {
			continue
		}
		targets = append(targets, p)
	}
	var extras []string
	if n.table.Empty() {
		for _, s := range n.seeds {
			if n.peerIndex[s] == nil && s != n.advertise {
				extras = append(extras, s)
			}
		}
	}
	n.mu.Unlock()
	for _, p := range targets {
		if n.sendTo(data, p) {
			n.ctr.beaconsSent.Add(1)
		}
	}
	// Seeds are contacts, not peers: their send health is not tracked — a
	// dead seed simply never answers, and an alive one turns into a
	// neighbor through its beacon.
	for _, s := range extras {
		if _, err := n.conn.WriteTo(data, s); err != nil {
			n.ctr.sendErrors.Add(1)
			n.logf("beacon to seed %v: %v", s, err)
			continue
		}
		n.ctr.beaconsSent.Add(1)
	}
}

// fireDue broadcasts every cached ad whose scheduled time has arrived, and
// piggybacks the periodic expired-state sweeps: the ad cache, the seen set,
// and — with discovery enabled — the neighbor table, whose expired entries
// are evicted from the peer set (the membership failure detector).
func (n *Node) fireDue() {
	if n.table != nil {
		for _, nb := range n.table.Sweep(time.Now()) {
			n.ctr.neighborsExpired.Add(1)
			n.event("neighbor_expired", nb.Addr, nb.ID, "")
			n.RemovePeer(nb.Addr)
			n.logf("neighbor %d (%s) silent past the %v TTL: removed", nb.ID, nb.Addr, n.neighborTTL)
		}
	}
	pos, _ := n.cfg.Position(time.Now())
	var toSend []*ads.Advertisement
	var digest []ads.ID
	n.mu.Lock()
	now := n.now()
	n.expireLocked(now)
	n.pruneSeenLocked(now)
	n.cache.ForEach(func(e *ads.Entry) {
		if e.ScheduledAt > now {
			return
		}
		e.Prob = n.forwardProbLocked(e.Ad, pos)
		if n.rnd.Bool(e.Prob) {
			toSend = append(toSend, e.Ad.Clone())
		}
		e.ScheduledAt = now + n.cfg.RoundTime.Seconds()
	})
	if n.digestEvery > 0 && now >= n.nextDigest && n.cache.Len() > 0 {
		n.nextDigest = now + float64(n.digestEvery)*n.cfg.RoundTime.Seconds()
		// A digest frame honors the batch soft cap too: when the cache holds
		// more IDs than fit, advertise a window starting at a random offset,
		// so successive digests cover the whole cache eventually.
		limit := maxIDsPerFrame
		if n.batchCap > 0 {
			if fit := (n.batchCap - idHeaderLen - 2) / 8; fit > 0 && fit < limit {
				limit = fit
			}
		}
		entries := n.cache.Entries()
		off := 0
		if len(entries) > limit {
			off = n.rnd.Intn(len(entries))
		}
		for i := 0; i < len(entries) && len(digest) < limit; i++ {
			digest = append(digest, entries[(off+i)%len(entries)].Ad.ID)
		}
	}
	n.mu.Unlock()
	if n.batchCap > 0 {
		n.gossipOut(toSend)
	} else {
		for _, ad := range toSend {
			n.broadcast(ad)
		}
	}
	if len(digest) > 0 {
		n.sendDigest(digest)
	}
}

// liveTargets snapshots the peers currently outside backoff windows.
func (n *Node) liveTargets() []*peerState {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	targets := make([]*peerState, 0, len(n.peers))
	for _, p := range n.peers {
		if p.backoffUntil.After(now) {
			continue
		}
		targets = append(targets, p)
	}
	return targets
}

// gossipOut ships one round's firing ads as batch frames to every live
// peer: all due ads coalesce into as few datagrams as the soft cap allows,
// instead of one envelope per ad per peer. The ads must be private to the
// caller (clones): encoding happens outside n.mu.
func (n *Node) gossipOut(list []*ads.Advertisement) {
	if len(list) == 0 {
		return
	}
	pos, vel := n.cfg.Position(time.Now())
	frames, oversize := packBatches(n.cfg.ID, pos, vel, list, n.batchCap)
	if oversize > 0 {
		n.ctr.batchOversize.Add(uint64(oversize))
	}
	// One gossip decision fired per ad, batched or not — the broadcasts
	// counter keeps its meaning across wire formats.
	n.ctr.broadcasts.Add(uint64(len(list)))
	targets := n.liveTargets()
	for _, f := range frames {
		for _, p := range targets {
			if !n.takeBudget(len(f.data)) {
				n.ctr.budgetDeferred.Add(1)
				continue
			}
			if n.sendTo(f.data, p) {
				n.ctr.sent.Add(1)
				n.ctr.batchesSent.Add(1)
				n.batchAds.Observe(float64(f.ads))
				n.batchBytes.Observe(float64(len(f.data)))
			}
		}
	}
}

// sendDigest announces our live cached ad IDs to every live peer outside
// its serve block window.
func (n *Node) sendDigest(ids []ads.ID) {
	pos, _ := n.cfg.Position(time.Now())
	f := idFrame{Sender: n.cfg.ID, Pos: pos, IDs: ids}
	data, err := f.encode(digestMagic)
	if err != nil {
		n.logf("digest encode: %v", err)
		return
	}
	now := time.Now()
	for _, p := range n.liveTargets() {
		if n.servedBlocked(p.key, now) {
			n.ctr.blockedServes.Add(1)
			continue
		}
		if !n.takeBudget(len(data)) {
			n.ctr.budgetDeferred.Add(1)
			continue
		}
		if n.sendTo(data, p) {
			n.ctr.digestsSent.Add(1)
			n.digestIDs.Observe(float64(len(ids)))
		}
	}
}

// broadcast sends one ad to every peer destination that is not in backoff —
// the legacy one-envelope-per-ad wire format, kept for Issue's immediate
// announcement and for configurations with batching disabled. The ad must be
// private to the caller (a clone), never a pointer still reachable from the
// cache: encoding happens outside n.mu.
func (n *Node) broadcast(ad *ads.Advertisement) {
	pos, vel := n.cfg.Position(time.Now())
	env := envelope{Sender: n.cfg.ID, Pos: pos, Vel: vel, Ad: ad}
	data, err := env.encode()
	if err != nil {
		n.logf("encode: %v", err)
		return
	}
	n.ctr.broadcasts.Add(1)
	for _, p := range n.liveTargets() {
		if n.sendTo(data, p) {
			n.ctr.sent.Add(1)
		}
	}
}

// sendToAddr transmits one frame to a destination that may or may not be a
// tracked peer: known peers go through sendTo so their health sees the
// attempt; strangers (a puller heard before discovery added it) get a raw
// write.
func (n *Node) sendToAddr(data []byte, addr string) bool {
	n.mu.Lock()
	p := n.peerIndex[addr]
	n.mu.Unlock()
	if p != nil {
		return n.sendTo(data, p)
	}
	if _, err := n.conn.WriteTo(data, addr); err != nil {
		n.ctr.sendErrors.Add(1)
		n.logf("send to %v: %v", addr, err)
		return false
	}
	return true
}

// sendTo transmits one frame to a peer and updates its send health,
// reporting success. The global send-error counter is bumped on failure;
// what a success counts as (ad sent, beacon sent, relay) is the caller's
// business.
func (n *Node) sendTo(data []byte, p *peerState) bool {
	if p.detached.Load() {
		// The peer was removed after this snapshot was taken; its entry is
		// dead and must not accumulate health or trip backoff.
		return false
	}
	start := time.Now()
	_, err := n.conn.WriteTo(data, p.key)
	n.sendLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		n.ctr.sendErrors.Add(1)
		n.peerSendFailed(p, err)
		return false
	}
	n.peerSendOK(p)
	return true
}

// peerSendFailed records one failed transmission and trips the peer into
// timed exponential backoff once the consecutive-failure limit is reached.
func (n *Node) peerSendFailed(p *peerState, err error) {
	n.mu.Lock()
	if p.detached.Load() {
		// Removed mid-send: the failure already hit the global counter, but
		// a dead entry's health and backoff stay frozen.
		n.mu.Unlock()
		return
	}
	p.failures++
	p.consecFails++
	tripped := p.consecFails >= n.failLimit
	var wait time.Duration
	if tripped {
		wait = p.nextBackoff
		if wait == 0 {
			wait = n.backoffBase
		}
		p.backoffUntil = time.Now().Add(wait)
		p.nextBackoff = wait * 2
		if p.nextBackoff > n.backoffMax {
			p.nextBackoff = n.backoffMax
		}
		p.consecFails = 0
		p.inBackoff = true
		n.ctr.peerBackoffs.Add(1)
		n.backoffDur.Observe(wait.Seconds())
		n.event("backoff_enter", p.key, 0, wait.String())
	}
	n.mu.Unlock()
	if tripped {
		n.logf("peer %v: backing off %v after repeated send failures: %v", p.key, wait, err)
	} else {
		n.logf("send to %v: %v", p.key, err)
	}
}

// peerSendOK resets the peer's failure streak and backoff window. The first
// success after a backoff window is the recovery edge, worth an event.
func (n *Node) peerSendOK(p *peerState) {
	n.mu.Lock()
	if p.detached.Load() {
		n.mu.Unlock()
		return
	}
	p.sent++
	p.consecFails = 0
	p.nextBackoff = 0
	if p.inBackoff {
		p.inBackoff = false
		n.event("backoff_exit", p.key, 0, "")
	}
	n.mu.Unlock()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
