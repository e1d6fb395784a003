// Package node runs the paper's opportunistic gossiping protocol over real
// UDP sockets — the deployment counterpart of the internal/core simulation.
// Each node is a daemon with a wall-clock gossip round, an ads cache, and a
// virtual position (from GPS in the paper; from a position provider here).
// Peers exchange self-describing datagrams carrying the sender's position
// and velocity, so the distance-based forwarding probability (Formula 1/3)
// and the overhearing postponement (Formula 4) work exactly as in the
// paper, with the unit-disk radio enforced at the receiver: packets from
// senders beyond the configured range are dropped, letting a loopback
// deployment exercise real geography.
package node

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/discovery"
	"instantad/internal/node/transport"
	"instantad/internal/obs"
	"instantad/internal/rng"
	"instantad/internal/trace"
)

// MembershipObserver is the optional Config.Events extension that hears the
// node's membership events: peer add/remove, neighbor
// new/refreshed/addr-changed/expired and backoff enter/exit, each a
// trace.Event of that kind with peer = the node's ID and t = protocol time.
type MembershipObserver interface {
	OnMembership(e trace.Event)
}

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
	Transport transport.Transport
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
	// Interests are the node's interest keywords for ad matching; order and
	// duplicates do not matter.
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

	// BatchSoftCap is the target maximum size in bytes of an outgoing batch
	// frame, the one frame that carries ads: Issue's announcement, gossip
	// rounds and pull serves. Zero means the MTU-aware default (1400 bytes —
	// under a typical Ethernet path MTU, far below the 65507-byte hard
	// limit); any other value must lie in [512, 65507]. A single ad larger
	// than the cap is still shipped (alone) —
	// datagrams cannot be fragmented here — and counted in batch_oversize.
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

	// Registry, when non-nil, serves the node's instruments: a view over its
	// node_* counters and gauges, its seven histograms and, with discovery
	// enabled, discovery_*. Nil — a fleet's nodes — means no registry and no
	// histograms: the node keeps only its plain counters, which Stats reads,
	// and Node.Registry returns nil. Registries are per-node: sharing one
	// between nodes would merge their instruments.
	Registry *obs.Registry
	// Events, when non-nil, hears the node's protocol events where the
	// simulator's peers report theirs — issue, broadcast, first receive,
	// duplicate, expire, evict — with peer = ID and t = protocol time. When
	// it implements MembershipObserver (trace.Recorder does), it also
	// hears peer add/remove, neighbor new/refreshed/addr-changed/expired and
	// backoff enter/exit. It runs under the node's lock, so its own lock
	// must nest inside, and it must not call back into the node.
	Events core.Observer
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
	// Positive form: a NaN range would pass every frame through the virtual
	// radio.
	if !(c.Range >= 0 && c.Range < math.Inf(1)) {
		return fmt.Errorf("node: range %v must be finite and non-negative", c.Range)
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
	if c.BatchSoftCap != 0 && (c.BatchSoftCap < minBatchSoftCap || c.BatchSoftCap > transport.MaxPayload) {
		return fmt.Errorf("node: batch soft cap %d outside [%d, %d] (0 = default)", c.BatchSoftCap, minBatchSoftCap, transport.MaxPayload)
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
	return nil
}

// protocol maps the node's protocol fields onto the simulator's configuration,
// which New validates and builds the node's rules from: DIS > 0 selects
// Optimization Mechanism (1), Opt2 Mechanism (2), and both together GossipOpt.
func (c Config) protocol() core.Config {
	cc := core.Config{
		Protocol:   core.Gossip,
		Params:     core.ProbParams{Alpha: c.Alpha, Beta: c.Beta},
		RoundTime:  c.RoundTime.Seconds(),
		DIS:        c.DIS,
		CacheK:     c.CacheK,
		Popularity: c.Popularity,
	}
	switch {
	case c.DIS > 0 && c.Opt2:
		cc.Protocol = core.GossipOpt
	case c.DIS > 0:
		cc.Protocol = core.GossipOpt1
	case c.Opt2:
		cc.Protocol = core.GossipOpt2
	}
	return cc
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
	rules     *core.Rules // the per-ad step the simulator's peers run too
	transport transport.Transport
	conn      transport.PacketConn

	// Discovery state: nil table means the legacy static-peer mode.
	table       *discovery.Table
	neighborTTL time.Duration
	advertise   string   // the address our beacons claim
	seeds       []string // canonical bootstrap contacts
	// introduced maps a neighbor ID to this node's last introduction of it,
	// guarded by mu (see introduceLocked).
	introduced map[uint32]introRecord

	// Per-peer send backoff, the default* constants (overridden by tests).
	failLimit   int
	backoffBase time.Duration
	backoffMax  time.Duration

	// Wire-layer tuning, resolved from Config at construction.
	batchCap    int           // batch frame soft cap in bytes
	digestEvery int           // digest rounds; 0 = digests disabled
	blockWindow time.Duration // per-peer serve block
	roundBytes  int           // per-round byte budget; 0 = unlimited

	mu        sync.Mutex
	cache     ads.Cache
	seen      map[ads.ID]float64 // ad ID → protocol-time expiry of that ad
	peers     []*peerState
	peerIndex map[string]*peerState // canonical key → entry of peers
	rnd       *rng.Stream
	nextSeq   uint32
	epoch     time.Time // protocol time zero: ages are seconds since epoch

	// Round state, guarded by mu. The node's round runs once per Δt on the
	// slot grid of its rules, at a phase drawn from its seed.
	roundSlot  int64                // slot of the node's next round
	rounds     int                  // rounds run, for DigestEvery
	budgetUsed int                  // payload bytes spent this round
	served     map[string]time.Time // addr → end of its serve block window
	// No entry of seen expires before seenNext, nor of served before
	// servedNext (zero: not known); pruneSeenLocked skips a map until then.
	seenNext   float64
	servedNext time.Time

	events core.Observer      // Config.Events, or a no-op
	member MembershipObserver // events' membership side, or nil
	hist   *histograms        // nil without Config.Registry

	// The node's poll driver jobs (driver.go), set by Start under mu. pollMu
	// is held while a job or a drain runs and guards unscheduled. ready, set
	// while the node is on its shard's ready list, is guarded by shard.mu.
	jobs        []pollJob
	shard       *shard
	pollMu      sync.Mutex
	unscheduled bool
	ready       bool

	ctr       counters
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
	started   bool
}

const (
	// defaultPeerFailLimit consecutive send failures put a peer into timed
	// backoff, so one dead address cannot burn a syscall every gossip round.
	// The first window lasts defaultPeerBackoffBase and each further trip
	// doubles it, up to defaultPeerBackoffMax.
	defaultPeerFailLimit   = 3
	defaultPeerBackoffBase = 500 * time.Millisecond
	defaultPeerBackoffMax  = 30 * time.Second
	// defaultTTLIntervals is the neighbor TTL in beacon intervals when
	// Config.NeighborTTL is zero: three missed beacons mean gone.
	defaultTTLIntervals = 3
	// introWindowTTLs is how long, in neighbor TTLs, a full introduction
	// covers its neighbor: past its first rediscovery, a neighbor heard anew
	// within it is introduced again only once the window has passed (see
	// introduceLocked). Chosen on TestDiscoveryConvergenceFromSingleSeed with
	// two race-detector binaries of this package at once on 2 vCPUs, 16
	// runs a value: with no window the test passed 0/16 (median 465 000
	// relays a run); at 2, 5 and 10 TTLs relays stayed at 423 000–453 000
	// and 0–2 runs passed; at 20, 259 000 relays and 8/16 passed. 20 is the
	// smallest of these that cuts relays. A single re-encounter is not held
	// back at any length (TestDiscoveryReencounterReforms, about 45 ms).
	introWindowTTLs = 20
	// epochSkewSlack is how far a beacon's epoch hint may sit from ours
	// before it is counted as a misconfiguration (seconds).
	epochSkewSlack = 1.0
)

// histograms are a served node's distributions, registered in
// Config.Registry.
type histograms struct {
	sendLatency, recvLatency, backoffDur *obs.Histogram
	batchAds, batchBytes                 *obs.Histogram // per sent batch frame
	recvBatch                            *obs.Histogram // ads per received batch frame
	digestIDs                            *obs.Histogram // IDs per sent digest
}

// sentBatch records one transmitted batch frame; a nil h records nothing.
func (h *histograms) sentBatch(f packedBatch) {
	if h != nil {
		h.batchAds.Observe(float64(f.ads))
		h.batchBytes.Observe(float64(len(f.data)))
	}
}

// The bucket bounds of the node's histograms, shared by every served node: a
// histogram keeps its bounds, so a process holds one copy of each.
var (
	latencyBuckets = obs.ExpBuckets(1e-6, 4, 12)
	backoffBuckets = obs.ExpBuckets(0.05, 2, 12)
	adCountBuckets = obs.ExpBuckets(1, 2, 10)
	byteBuckets    = obs.ExpBuckets(64, 2, 11)
	idCountBuckets = obs.ExpBuckets(1, 2, 12)
)

// New binds the node's socket. Call Start to begin gossiping and Close to
// shut down.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Interests = ads.InterestSet(cfg.Interests)
	rules, err := core.NewRules(cfg.protocol())
	if err != nil {
		return nil, err
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.UDP{}
	}
	conn, err := tr.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n := &Node{
		cfg:         cfg,
		rules:       rules,
		transport:   tr,
		conn:        conn,
		events:      cfg.Events,
		failLimit:   defaultPeerFailLimit,
		backoffBase: defaultPeerBackoffBase,
		backoffMax:  defaultPeerBackoffMax,
		seen:        make(map[ads.ID]float64),
		served:      make(map[string]time.Time),
		peerIndex:   make(map[string]*peerState),
		rnd:         rng.New(cfg.Seed),
		epoch:       time.Now(),
		done:        make(chan struct{}),
	}
	if n.events == nil {
		n.events = core.BaseObserver{}
	}
	n.member, _ = n.events.(MembershipObserver)
	n.cache.Init(cfg.CacheK)
	n.batchCap = cfg.BatchSoftCap
	if n.batchCap == 0 {
		n.batchCap = defaultBatchSoftCap
	}
	n.digestEvery = cfg.DigestEvery
	n.blockWindow = cfg.BlockWindow
	if n.blockWindow == 0 && n.digestEvery > 0 {
		n.blockWindow = 4 * cfg.RoundTime
	}
	n.roundBytes = cfg.RoundBytes
	n.roundSlot = rules.Phase(n.rnd)
	if cfg.BeaconInterval > 0 {
		n.neighborTTL = cfg.NeighborTTL
		if n.neighborTTL == 0 {
			n.neighborTTL = defaultTTLIntervals * cfg.BeaconInterval
		}
		n.table = discovery.NewTable(n.neighborTTL)
		n.introduced = make(map[uint32]introRecord)
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
	if reg := cfg.Registry; reg != nil {
		RegisterStats(reg, n.Stats)
		n.hist = &histograms{
			sendLatency: reg.Histogram("node_send_latency_seconds",
				"time one datagram transmission spent in the socket write", latencyBuckets),
			recvLatency: reg.Histogram("node_receive_latency_seconds",
				"time from datagram arrival to full protocol integration", latencyBuckets),
			backoffDur: reg.Histogram("node_peer_backoff_seconds",
				"duration of each peer backoff window entered", backoffBuckets),
			batchAds: reg.Histogram("node_batch_ads",
				"ads packed into each transmitted batch frame", adCountBuckets),
			batchBytes: reg.Histogram("node_batch_bytes",
				"payload bytes of each transmitted batch frame", byteBuckets),
			recvBatch: reg.Histogram("node_recv_batch_ads",
				"ads carried by each accepted batch frame", adCountBuckets),
			digestIDs: reg.Histogram("node_digest_ids",
				"ad IDs carried by each transmitted digest frame", idCountBuckets),
		}
		if n.table != nil {
			n.table.InstrumentWith(reg)
		}
	}
	return n, nil
}

// Registry returns Config.Registry, which serves the node's instruments, or
// nil when the node has none.
func (n *Node) Registry() *obs.Registry { return n.cfg.Registry }

// memberLocked reports one membership event when Config.Events takes them.
// Callers hold n.mu (or own the node exclusively, as New does).
func (n *Node) memberLocked(kind trace.Kind, addr string, neighbor uint32, detail string) {
	if n.member != nil {
		n.member.OnMembership(trace.Event{T: n.now(), Kind: kind, Peer: int(n.cfg.ID),
			Addr: addr, Neighbor: neighbor, Detail: detail})
	}
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
	n.memberLocked(trace.KindPeerAdd, key, 0, "")
	return p
}

// dropPeerLocked removes the peer keyed key, if there is one. The entry is
// marked detached under the same lock that removes it: send paths holding a
// pre-removal snapshot must stop mutating its health. Callers hold n.mu.
func (n *Node) dropPeerLocked(key string) {
	p := n.peerIndex[key]
	if p == nil {
		return
	}
	p.detached.Store(true)
	delete(n.peerIndex, key)
	kept := n.peers[:0]
	for _, q := range n.peers {
		if q != p {
			kept = append(kept, q)
		}
	}
	n.peers = kept
	n.memberLocked(trace.KindPeerRemove, key, 0, "")
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

// Start puts the node's poll and (with discovery enabled) its beacon on the
// poll driver, which also dispatches the datagrams its conn receives.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		panic("node: Start called twice")
	}
	n.started = true
	if n.closed() {
		return
	}
	n.schedule()
	n.conn.SetArrival(n.arrived)
}

// Close stops the node and releases the socket. It is idempotent and safe to
// call from any number of goroutines concurrently; every call returns the
// same result. It takes the node's jobs off the poll driver and waits for a
// poll or drain already running, never for one to come: no observer call, no
// dispatch and no send follow its return.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.mu.Lock()
		if n.shard != nil {
			n.shard.remove(n.jobs)
		}
		n.mu.Unlock()
		n.pollMu.Lock()
		n.unscheduled = true
		n.pollMu.Unlock()
		n.closeErr = n.conn.Close()
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
// announces it at once as a batch of one, through the same pack, budget and
// fan-out as a gossip round.
func (n *Node) Issue(spec core.AdSpec) (*ads.Advertisement, error) {
	pos, _ := n.cfg.Position(time.Now())
	n.mu.Lock()
	// A hostile or buggy peer may have flooded forged ads under our issuer
	// identity; skip any sequence number already occupied so the cache
	// insert below cannot collide (and panic).
	for n.cache.Get(ads.ID{Issuer: n.cfg.ID, Seq: n.nextSeq}) != nil {
		n.nextSeq++
	}
	now := n.now()
	ad, err := n.rules.NewAd(ads.ID{Issuer: n.cfg.ID, Seq: n.nextSeq}, pos, now, spec)
	n.nextSeq++
	if err != nil {
		n.mu.Unlock()
		return nil, err
	}
	n.events.OnIssue(int(n.cfg.ID), ad, now)
	if n.markSeenLocked(ad) {
		n.events.OnFirstReceive(int(n.cfg.ID), ad, now)
	}
	// The cached copy is sent as a shared snapshot: a duplicate merging into
	// the entry once mu drops writes a clone (Entry.Own), never what
	// gossipOut encodes outside the lock.
	out := ad.Clone()
	if e := n.admitLocked(out, pos, now); e != nil {
		e.Shared = true
	}
	n.mu.Unlock()
	n.gossipOut([]*ads.Advertisement{out}, now)
	return ad, nil
}

// markSeenLocked records the ad in the dedup set, keyed to the ad's expiry
// on the protocol clock so the sweep in pruneSeenLocked can bound the set by
// the live-ad population, and reports whether the set lacked its ID: the
// node's first receive. Duplicates may carry an enlarged D; keep the latest
// expiry. Callers hold n.mu.
func (n *Node) markSeenLocked(ad *ads.Advertisement) (first bool) {
	exp := ad.IssuedAt + ad.D
	old, ok := n.seen[ad.ID]
	if !ok || exp > old {
		n.seen[ad.ID] = exp
		n.seenNext = min(n.seenNext, exp)
	}
	return !ok
}

// blockServeLocked opens addr's serve block window, which lasts until until.
// Callers hold n.mu.
func (n *Node) blockServeLocked(addr string, until time.Time) {
	n.served[addr] = until
	if n.servedNext.IsZero() || until.Before(n.servedNext) {
		n.servedNext = until
	}
}

// admitLocked is the shared rules' admission with its evictions reported —
// the victim, or the newcomer itself when it ranks last — and the admitted
// entry's first due slot set, as core.Peer's admit does. Callers hold n.mu.
func (n *Node) admitLocked(ad *ads.Advertisement, pos geo.Point, now float64) *ads.Entry {
	e, victim := n.rules.Admit(&n.cache, n.rnd, ad, false, uint64(n.cfg.ID)+1, n.cfg.Interests, false, pos, now)
	if victim != nil {
		n.events.OnEvict(int(n.cfg.ID), victim.Ad.ID, now)
	}
	if e == nil {
		n.events.OnEvict(int(n.cfg.ID), ad.ID, now)
		return nil
	}
	e.Slot = n.rules.FirstDue(now)
	return e
}

// pruneSeenLocked sweeps expired IDs out of the dedup set once per round,
// keeping it O(live ads). An ID goes the first sweep after its expiry, with
// no grace round: straggler duplicates of a just-expired ad are dropped by the
// expiry check either way. Serve blocks lapsed at wall go in the same sweep:
// servedBlocked ignores them anyway. A map is walked only once its earliest
// expiry has passed, and the walk finds the next one. Callers hold n.mu.
func (n *Node) pruneSeenLocked(now float64, wall time.Time) {
	if n.seenNext < now {
		next := math.Inf(1)
		for id, exp := range n.seen {
			if exp < now {
				delete(n.seen, id)
				n.ctr.SeenPruned.Add(1)
			} else {
				next = min(next, exp)
			}
		}
		n.seenNext = next
	}
	if len(n.served) > 0 && !n.servedNext.After(wall) {
		var next time.Time
		for addr, until := range n.served {
			if !until.After(wall) {
				delete(n.served, addr)
			} else if next.IsZero() || until.Before(next) {
				next = until
			}
		}
		n.servedNext = next
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

// dispatch routes one datagram on its leading magic byte. Anything else —
// including the retired 0xAE single-ad envelope — is malformed. Batch,
// digest and pull frames share a header that carries the sender's position,
// so the virtual radio reads it there, once, before any ad or ID is decoded.
func (n *Node) dispatch(data []byte, from string) {
	if len(data) == 0 {
		n.ctr.Malformed.Add(1)
		return
	}
	switch data[0] {
	case discovery.BeaconMagic:
		n.handleBeacon(data, from)
		return
	case batchMagic, digestMagic, pullMagic:
	default:
		n.ctr.Malformed.Add(1)
		return
	}
	_, src, err := decodeHeader(data, data[0], 2)
	if err != nil {
		n.ctr.Malformed.Add(1)
		return
	}
	start := time.Now()
	pos, vel := n.cfg.Position(start)
	if n.cfg.Range > 0 && pos.Dist(geo.Point{X: src[0], Y: src[1]}) > n.cfg.Range {
		n.ctr.OutOfRange.Add(1)
		return
	}
	// The data is shared and read-only, and what is decoded from it lands in
	// pooled scratch, which every handler leaves for the next datagram.
	sc := rxPool.Get().(*rxScratch)
	switch data[0] {
	case batchMagic:
		n.handleBatch(sc, data, pos, vel)
		if n.hist != nil {
			n.hist.recvLatency.Observe(time.Since(start).Seconds())
		}
	case digestMagic:
		n.handleDigest(sc, data, from, pos)
	case pullMagic:
		n.handlePull(sc, data, from, pos, vel)
	}
	rxPool.Put(sc)
}

// handleBatch decodes a multi-ad batch frame from a sender in range into
// scratch and integrates every carried ad, all under one lock acquisition:
// the whole frame decodes before any ad is integrated, and an ad the cache
// holds decodes over the cached copy. pos and vel are the receiver's own
// kinematics.
func (n *Node) handleBatch(sc *rxScratch, data []byte, pos geo.Point, vel geo.Vec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, err := sc.decodeBatch(data, &n.cache)
	if err != nil {
		n.ctr.Malformed.Add(1)
		return
	}
	n.ctr.BatchesRecv.Add(1)
	if n.hist != nil {
		n.hist.recvBatch.Observe(float64(len(f.Ads)))
	}
	now := n.now()
	for _, ad := range f.Ads {
		if !ad.Expired(now) && n.cache.Get(ad.ID) == nil {
			ad = ad.Clone() // it may be admitted, and so outlive the scratch
		}
		n.integrateAdLocked(now, f.Pos, pos, vel, ad)
	}
}

// integrateAdLocked is the paper's receive algorithm for one ad heard at
// protocol time now from a sender at srcPos: expiry check, dedup-set mark,
// then the shared rules' merge (plus the Opt2 postponement) or admission of
// ad. An ad whose ID the cache holds may be scratch that the next datagram
// overwrites: the merge keeps no pointer into it, and no observer is handed
// it. Any other ad must be private, and is admitted as it is. Callers hold
// n.mu and have applied the virtual radio.
func (n *Node) integrateAdLocked(now float64, srcPos geo.Point, pos geo.Point, vel geo.Vec, ad *ads.Advertisement) {
	if ad.Expired(now) {
		n.ctr.Expired.Add(1)
		return
	}
	n.ctr.Received.Add(1)
	e := n.cache.Get(ad.ID)
	if n.markSeenLocked(ad) {
		first := ad
		if e != nil {
			// The dedup set swept an ID the cache still holds: hand the
			// observer a copy, never scratch.
			first = ad.Clone()
		}
		n.events.OnFirstReceive(int(n.cfg.ID), first, now)
	}
	if e != nil {
		n.ctr.Duplicates.Add(1)
		n.events.OnDuplicate(int(n.cfg.ID), ad.ID, now)
		n.rules.Merge(&n.cache, e, ad)
		n.markSeenLocked(e.Ad)
		if n.cfg.Opt2 {
			// Formula 4 with the real overlap and approach angle.
			n.rules.Postpone(e, geo.OverlapFraction(n.cfg.Range, pos.Dist(srcPos)), geo.AngleBetween(vel, srcPos.Sub(pos)))
		}
		return
	}
	n.admitLocked(ad, pos, now)
}

// handleDigest answers a neighbor's cache digest: any advertised ID we have
// not heard (or whose copy we heard has expired) goes into a pull request
// back to the sender. A digest we fully cover is a digest hit — the
// anti-entropy steady state where neighbors trade 8-byte IDs instead of
// payloads.
func (n *Node) handleDigest(sc *rxScratch, data []byte, from string, pos geo.Point) {
	f := &sc.ids
	if err := f.decode(data, digestMagic); err != nil {
		n.ctr.Malformed.Add(1)
		return
	}
	n.ctr.DigestsRecv.Add(1)
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
		n.ctr.DigestHits.Add(1)
		return
	}
	pf := idFrame{Sender: n.cfg.ID, Pos: pos, IDs: missing}
	out, err := pf.encode(pullMagic)
	if err != nil {
		n.logf("pull encode: %v", err)
		return
	}
	if !n.takeBudget(len(out)) {
		n.ctr.BudgetDeferred.Add(1)
		return
	}
	if n.sendToAddr(out, from) {
		n.ctr.PullsSent.Add(1)
	}
}

// handlePull serves a neighbor's pull request with the requested ads from
// our cache, packed into batch frames, then blocks that neighbor for the
// serve window (BuddyCast-style) so one hungry peer cannot monopolize us.
func (n *Node) handlePull(sc *rxScratch, data []byte, from string, pos geo.Point, vel geo.Vec) {
	f := &sc.ids
	if err := f.decode(data, pullMagic); err != nil {
		n.ctr.Malformed.Add(1)
		return
	}
	now := time.Now()
	if n.servedBlocked(from, now) {
		n.ctr.BlockedServes.Add(1)
		return
	}
	n.mu.Lock()
	var serve []*ads.Advertisement
	for _, id := range f.IDs {
		if e := n.cache.Get(id); e != nil {
			e.Shared = true
			serve = append(serve, e.Ad)
		}
	}
	if len(serve) > 0 && n.blockWindow > 0 {
		n.blockServeLocked(from, now.Add(n.blockWindow))
	}
	n.mu.Unlock()
	n.ctr.PullsRecv.Add(1)
	if len(serve) == 0 {
		return
	}
	frames, oversize := packBatches(n.cfg.ID, pos, vel, serve, n.batchCap)
	if oversize > 0 {
		n.ctr.BatchOversize.Add(uint64(oversize))
	}
	for _, fr := range frames {
		if !n.takeBudget(len(fr.data)) {
			n.ctr.BudgetDeferred.Add(1)
			continue
		}
		if n.sendToAddr(fr.data, from) {
			n.ctr.Sent.Add(1)
			n.ctr.BatchesSent.Add(1)
			n.ctr.PulledAds.Add(uint64(fr.ads))
			n.hist.sentBatch(fr)
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

// takeBudget claims nb bytes of the round's send budget, which each of the
// node's rounds renews. Unlimited (roundBytes == 0) always grants.
func (n *Node) takeBudget(nb int) bool {
	if n.roundBytes <= 0 {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
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
		n.ctr.Malformed.Add(1)
		return
	}
	if n.table == nil || b.ID == n.cfg.ID {
		// Discovery disabled, or our own beacon echoed back (a seed list
		// containing ourselves, a relayed introduction): drop quietly.
		return
	}
	pos, _ := n.cfg.Position(time.Now())
	if n.cfg.Range > 0 && pos.Dist(b.Pos) > n.cfg.Range {
		n.ctr.OutOfRange.Add(1)
		return
	}
	key, err := n.transport.Resolve(b.Addr)
	if err != nil {
		// A beacon claiming an unroutable address is useless to us.
		n.ctr.Malformed.Add(1)
		return
	}
	n.ctr.BeaconsRecv.Add(1)
	if skew := b.Epoch - n.epochUnix(); skew > epochSkewSlack || skew < -epochSkewSlack {
		n.ctr.EpochSkew.Add(1)
		n.logf("neighbor %d epoch differs from ours by %.1fs: ad ages will disagree", b.ID, skew)
	}
	b.Addr = key
	ev, prevAddr := n.table.Observe(b, time.Now())
	switch ev {
	case discovery.New:
		n.mu.Lock()
		n.memberLocked(trace.KindNeighborNew, key, b.ID, "")
		n.addPeerLocked(key)
		// Only first-hand beacons are relayed: an introduction of an
		// introduction would echo around the mesh forever.
		relay := from == key && n.introduceLocked(b.ID, key, data, time.Now())
		n.mu.Unlock()
		n.logf("discovered neighbor %d at %s", b.ID, key)
		if relay {
			n.relayIntroduction(data, key)
		}
		n.beaconBack(key)
	case discovery.AddrChanged:
		n.mu.Lock()
		n.memberLocked(trace.KindNeighborAddrChanged, key, b.ID, prevAddr)
		n.dropPeerLocked(prevAddr)
		n.addPeerLocked(key)
		n.mu.Unlock()
		n.logf("neighbor %d moved %s → %s", b.ID, prevAddr, key)
	case discovery.Refreshed:
		if n.member != nil { // the common beacon takes no lock without a trace
			n.mu.Lock()
			n.memberLocked(trace.KindNeighborRefreshed, key, b.ID, "")
			n.mu.Unlock()
		}
	}
}

// introRecord is when a node last introduced a neighbor in full, whether a
// first-hand rediscovery has since been introduced at once, and the latest
// first-hand beacon of a rediscovery that still owes the neighborhood one,
// with the address it came from.
type introRecord struct {
	at     time.Time
	again  bool
	owed   []byte
	origin string
}

// introduceLocked reports whether neighbor id, heard first-hand as new at
// now from origin in the beacon data, is to be introduced to the
// neighborhood at once, and records it. A first discovery, and a
// rediscovery past introWindowTTLs neighbor TTLs of the last full
// introduction, go out at once; so does the first rediscovery within that
// window, which is what a neighbor that left range and came back looks
// like. Further rediscoveries within the window are a neighbor expiring
// under load: each introduction relays one datagram per live peer, which
// delays beacons, which expires more neighbors, so these owe one
// introduction, which relayOwedIntroductions relays once the window has
// passed. Deferred, not dropped: two peers that have both forgotten each
// other meet again only through an introduction.
func (n *Node) introduceLocked(id uint32, origin string, data []byte, now time.Time) bool {
	r, ok := n.introduced[id]
	switch {
	case !ok || now.Sub(r.at) >= introWindowTTLs*n.neighborTTL:
		n.introduced[id] = introRecord{at: now}
		return true
	case !r.again:
		r.again = true
		n.introduced[id] = r
		return true
	}
	r.owed = data // a received datagram is read-only: keep it, not a copy
	r.origin = origin
	n.introduced[id] = r
	return false
}

// relayOwedIntroductions runs every beacon interval: it relays each
// introduction introduceLocked deferred whose window has passed — the bytes
// the neighbor itself last sent, if the table still holds it at the address
// they came from — and forgets the records past their window that owe
// nothing.
func (n *Node) relayOwedIntroductions(now time.Time) {
	type debt struct {
		id     uint32
		data   []byte
		origin string
	}
	var due []debt
	n.mu.Lock()
	for id, r := range n.introduced {
		switch {
		case now.Sub(r.at) < introWindowTTLs*n.neighborTTL:
		case r.owed != nil:
			due = append(due, debt{id, r.owed, r.origin})
			n.introduced[id] = introRecord{at: now}
		default:
			delete(n.introduced, id)
		}
	}
	n.mu.Unlock()
	for _, d := range due {
		if nb, ok := n.table.Get(d.id); ok && nb.Addr == d.origin {
			n.relayIntroduction(d.data, d.origin)
		}
	}
}

// relayIntroduction passes a first-heard beacon along to every other live
// peer. With unicast datagrams standing in for a broadcast medium this is
// what makes discovery transitive: a newcomer announces to one seed and the
// seed's relays introduce it to the whole neighborhood; receivers then greet
// the newcomer directly and the mesh closes over the next interval.
func (n *Node) relayIntroduction(data []byte, origin string) {
	for _, p := range n.liveTargets(origin) {
		if n.sendTo(data, p) {
			n.ctr.BeaconRelays.Add(1)
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
		n.ctr.BeaconsSent.Add(1)
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
	targets := n.liveTargets("")
	n.mu.Lock()
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
			n.ctr.BeaconsSent.Add(1)
		}
	}
	// Seeds are contacts, not peers: their send health is not tracked — a
	// dead seed simply never answers, and an alive one turns into a
	// neighbor through its beacon.
	for _, s := range extras {
		if _, err := n.conn.WriteTo(data, s); err != nil {
			n.ctr.SendErrors.Add(1)
			n.logf("beacon to seed %v: %v", s, err)
			continue
		}
		n.ctr.BeaconsSent.Add(1)
	}
}

// fireDue is one poll: the discovery sweep, whose expired neighbors leave
// the peer set (the membership failure detector), then tickLocked at the
// protocol time it finds, then the sends tickLocked chose.
func (n *Node) fireDue() {
	if n.table != nil {
		for _, nb := range n.table.Sweep(time.Now()) {
			n.ctr.NeighborsExpired.Add(1)
			n.mu.Lock()
			n.memberLocked(trace.KindNeighborExpired, nb.Addr, nb.ID, "")
			// A beacon heard since the sweep has put the neighbor back at the
			// same address, and its handler's add is a no-op: keep the peer.
			if cur, ok := n.table.Get(nb.ID); !ok || cur.Addr != nb.Addr {
				n.dropPeerLocked(nb.Addr)
			}
			n.mu.Unlock()
			n.logf("neighbor %d (%s) silent past the %v TTL: removed", nb.ID, nb.Addr, n.neighborTTL)
		}
	}
	pos, _ := n.cfg.Position(time.Now())
	n.mu.Lock()
	now := n.now()
	toSend, digest := n.tickLocked(now, pos)
	n.mu.Unlock()
	n.gossipOut(toSend, now)
	if len(digest) > 0 {
		n.sendDigest(digest)
	}
}

// tickLocked advances the node's schedule to protocol time now. When the
// slot of the node's round has come, the round sweeps the seen set, renews
// the byte budget and, every DigestEvery-th round, picks a digest; a node
// that fell more than a round behind runs one round and skips the rest. Then
// one walk over the cache drops expired ads and steps the due ones: without
// Opt2 the whole cache when the round is due (Algorithm 2), under it each
// entry at its own slot, due again a round later on its phase (Algorithm 4).
// It returns the snapshots the coins chose to send, marked Shared. Callers
// hold n.mu.
func (n *Node) tickLocked(now float64, pos geo.Point) (toSend []*ads.Advertisement, digest []ads.ID) {
	cur := n.rules.SlotAt(now)
	round := n.roundSlot <= cur
	if round {
		n.roundSlot = n.rules.NextDue(n.roundSlot, cur)
		n.rounds++
		n.budgetUsed = 0
		n.pruneSeenLocked(now, time.Now())
	}
	n.cache.ForEach(func(e *ads.Entry) {
		due := round
		if n.cfg.Opt2 {
			due = e.Slot <= cur
		}
		if !due && !e.Ad.Expired(now) {
			return
		}
		live, send := n.rules.Step(&n.cache, n.rnd, e, false, pos, now)
		if !live {
			n.events.OnExpire(int(n.cfg.ID), e.Ad.ID, now)
		} else if n.cfg.Opt2 {
			e.Slot = n.rules.NextDue(e.Slot, cur)
		}
		if send {
			e.Shared = true
			toSend = append(toSend, e.Ad)
		}
	})
	if round && n.digestEvery > 0 && n.rounds%n.digestEvery == 0 && n.cache.Len() > 0 {
		// A digest frame honors the batch soft cap too: when the cache holds
		// more IDs than fit, advertise a window starting at a random offset,
		// so successive digests cover the whole cache eventually.
		limit := min(maxIDsPerFrame, (n.batchCap-idHeaderLen-2)/8)
		entries := n.cache.Entries()
		off := 0
		if len(entries) > limit {
			off = n.rnd.Intn(len(entries))
		}
		for i := 0; i < len(entries) && len(digest) < limit; i++ {
			digest = append(digest, entries[(off+i)%len(entries)].Ad.ID)
		}
	}
	return toSend, digest
}

// liveTargets snapshots the peers currently outside backoff windows, all
// but the one keyed except ("" leaves none out). Every fan-out — gossip and
// announcements, digests, beacons, introductions — sends to this set.
func (n *Node) liveTargets(except string) []*peerState {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	targets := make([]*peerState, 0, len(n.peers))
	for _, p := range n.peers {
		if p.key != except && !p.backoffUntil.After(now) {
			targets = append(targets, p)
		}
	}
	return targets
}

// gossipOut ships ads as batch frames to every live peer — one round's
// firing ads, or Issue's fresh one: the list coalesces into as few
// datagrams as the soft cap allows, each drawing on the round byte budget.
// The ads must be snapshots no one writes to — cached entries marked Shared,
// so merges copy first: encoding happens outside n.mu. now is the protocol
// time at which the caller chose them.
func (n *Node) gossipOut(list []*ads.Advertisement, now float64) {
	if len(list) == 0 {
		return
	}
	pos, vel := n.cfg.Position(time.Now())
	frames, oversize := packBatches(n.cfg.ID, pos, vel, list, n.batchCap)
	if oversize > 0 {
		n.ctr.BatchOversize.Add(uint64(oversize))
	}
	// One gossip decision fired per ad, however the ads were packed.
	n.ctr.Broadcasts.Add(uint64(len(list)))
	for _, ad := range list {
		n.events.OnBroadcast(int(n.cfg.ID), ad.ID, ad.WireSize(), now)
	}
	targets := n.liveTargets("")
	for _, f := range frames {
		for _, p := range targets {
			if !n.takeBudget(len(f.data)) {
				n.ctr.BudgetDeferred.Add(1)
				continue
			}
			if n.sendTo(f.data, p) {
				n.ctr.Sent.Add(1)
				n.ctr.BatchesSent.Add(1)
				n.hist.sentBatch(f)
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
	for _, p := range n.liveTargets("") {
		if n.servedBlocked(p.key, now) {
			n.ctr.BlockedServes.Add(1)
			continue
		}
		if !n.takeBudget(len(data)) {
			n.ctr.BudgetDeferred.Add(1)
			continue
		}
		if n.sendTo(data, p) {
			n.ctr.DigestsSent.Add(1)
			if n.hist != nil {
				n.hist.digestIDs.Observe(float64(len(ids)))
			}
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
		n.ctr.SendErrors.Add(1)
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
	var err error
	if n.hist == nil {
		_, err = n.conn.WriteTo(data, p.key)
	} else {
		start := time.Now()
		_, err = n.conn.WriteTo(data, p.key)
		n.hist.sendLatency.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		n.ctr.SendErrors.Add(1)
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
		n.ctr.PeerBackoffs.Add(1)
		if n.hist != nil {
			n.hist.backoffDur.Observe(wait.Seconds())
		}
		n.memberLocked(trace.KindBackoffEnter, p.key, 0, wait.String())
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
		n.memberLocked(trace.KindBackoffExit, p.key, 0, "")
	}
	n.mu.Unlock()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
