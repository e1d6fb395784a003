package core

import (
	"fmt"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// Observer receives protocol-level events for metrics collection. All
// callbacks run synchronously inside the simulation loop; implementations
// must not block. Use BaseObserver to implement a subset.
type Observer interface {
	// OnIssue fires when an issuer injects a new advertisement.
	OnIssue(issuer int, ad *ads.Advertisement, t float64)
	// OnBroadcast fires once per transmitted advertisement frame.
	OnBroadcast(peer int, id ads.ID, bytes int, t float64)
	// OnFirstReceive fires the first time a given peer ever hears a given ad.
	OnFirstReceive(peer int, ad *ads.Advertisement, t float64)
	// OnDuplicate fires when a peer hears an ad it already caches (gossip
	// variants) or already relayed this cycle (flooding).
	OnDuplicate(peer int, id ads.ID, t float64)
	// OnExpire fires when a peer drops an ad because its age exceeded D.
	OnExpire(peer int, id ads.ID, t float64)
	// OnEvict fires when the cache evicts an ad to make room.
	OnEvict(peer int, id ads.ID, t float64)
}

// MultiObserver fans every event out to several observers in order — e.g. a
// metrics collector plus a trace recorder.
func MultiObserver(obs ...Observer) Observer {
	flat := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	return flat
}

type multiObserver []Observer

func (m multiObserver) OnIssue(issuer int, ad *ads.Advertisement, t float64) {
	for _, o := range m {
		o.OnIssue(issuer, ad, t)
	}
}
func (m multiObserver) OnBroadcast(peer int, id ads.ID, bytes int, t float64) {
	for _, o := range m {
		o.OnBroadcast(peer, id, bytes, t)
	}
}
func (m multiObserver) OnFirstReceive(peer int, ad *ads.Advertisement, t float64) {
	for _, o := range m {
		o.OnFirstReceive(peer, ad, t)
	}
}
func (m multiObserver) OnDuplicate(peer int, id ads.ID, t float64) {
	for _, o := range m {
		o.OnDuplicate(peer, id, t)
	}
}
func (m multiObserver) OnExpire(peer int, id ads.ID, t float64) {
	for _, o := range m {
		o.OnExpire(peer, id, t)
	}
}
func (m multiObserver) OnEvict(peer int, id ads.ID, t float64) {
	for _, o := range m {
		o.OnEvict(peer, id, t)
	}
}

// PostponeObserver is an optional Observer extension: implementations also
// hear every Optimization Mechanism 2 postponement (Formula 4) with the
// delay applied, so postponement-delay distributions can be measured.
// Observers composed via MultiObserver receive OnPostpone when they
// implement this interface; others are skipped.
type PostponeObserver interface {
	// OnPostpone fires when overhearing pushes a peer's next gossip of an
	// ad back by delay seconds.
	OnPostpone(peer int, id ads.ID, delay float64, t float64)
}

func (m multiObserver) OnPostpone(peer int, id ads.ID, delay float64, t float64) {
	for _, o := range m {
		if po, ok := o.(PostponeObserver); ok {
			po.OnPostpone(peer, id, delay, t)
		}
	}
}

// BaseObserver is a no-op Observer for embedding.
type BaseObserver struct{}

func (BaseObserver) OnIssue(int, *ads.Advertisement, float64)        {}
func (BaseObserver) OnBroadcast(int, ads.ID, int, float64)           {}
func (BaseObserver) OnFirstReceive(int, *ads.Advertisement, float64) {}
func (BaseObserver) OnDuplicate(int, ads.ID, float64)                {}
func (BaseObserver) OnExpire(int, ads.ID, float64)                   {}
func (BaseObserver) OnEvict(int, ads.ID, float64)                    {}

// gossipFrame is the payload of a gossiped advertisement broadcast. The ad
// is an immutable snapshot shared by all receivers of the frame.
type gossipFrame struct {
	ad *ads.Advertisement
}

// floodFrame is the payload of a Restricted Flooding broadcast. radius is
// the advertising radius the issuer embedded for this cycle; receivers
// beyond it do not relay.
type floodFrame struct {
	ad     *ads.Advertisement
	cycle  uint32
	radius float64
}

// floodHeaderBytes is the wire overhead a flood frame adds to the encoded
// ad: a 4-byte cycle counter and an 8-byte radius.
const floodHeaderBytes = 12

// Network wires peers, the wireless channel and a protocol configuration
// into one runnable mobile P2P advertising system.
type Network struct {
	cfg   Config
	sim   *sim.Simulator
	ch    *radio.Channel
	peers []*Peer
	obs   Observer
	// postObs is obs's PostponeObserver side, resolved once at SetObserver
	// so the postpone hot path pays no per-call type assertion.
	postObs PostponeObserver
	rnd     *rng.Stream
	// rsu is the roadside-unit backhaul state, nil without RSUs (see rsu.go).
	rsu *rsuState
	// asyncObs holds the pairwise-family connection instruments, nil until
	// InstrumentWith runs under AsyncGossip (see async.go).
	asyncObs *asyncInstruments
	// asyncFree holds the pairwise frames awaiting reuse (see asyncFrame).
	asyncFree []*asyncFrame

	// nbrScratch, seenStamp and stamp serve the Relevance Exchange rounds (see
	// senseEncounter): the shared neighbour-query buffer, one mark per peer,
	// and the value the current call marks with.
	nbrScratch []int
	seenStamp  []uint32
	stamp      uint32
	// rules is the per-ad step every peer runs and the slot grid its round
	// and entry timers are scheduled on (sim.ScheduleSlot; see rules.go).
	rules *Rules
	// heard holds, per ad, the N-bit set of the peers that have heard it
	// (delivery bookkeeping), made at the ad's first mark.
	heard map[ads.ID][]uint64

	started bool
}

// New builds a network of len(models) peers moving per the given mobility
// models, communicating over a channel with the given radio configuration,
// and running cfg.Protocol. The rnd stream seeds all protocol randomness;
// the channel's jitter/loss randomness is split from it too.
func New(s *sim.Simulator, radioCfg radio.Config, models []mobility.Model, cfg Config, rnd *rng.Stream) (*Network, error) {
	rules, err := NewRules(cfg)
	if err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: no peers")
	}
	cfg = rules.cfg
	if cfg.Protocol.isAsync() {
		if cfg.AsyncK == 0 {
			cfg.AsyncK = 1
		}
		if cfg.AsyncMeanDelay == 0 {
			cfg.AsyncMeanDelay = cfg.RoundTime
		}
		if cfg.AsyncTimeout == 0 {
			cfg.AsyncTimeout = cfg.RoundTime
		}
	}
	n := &Network{
		cfg:   cfg,
		sim:   s,
		obs:   BaseObserver{},
		rnd:   rnd,
		rules: rules,
		heard: make(map[ads.ID][]uint64),
	}
	ch, err := radio.New(s, radioCfg, models, n.deliver, rnd.Split("radio"))
	if err != nil {
		return nil, err
	}
	n.ch = ch
	s.SetSlotWidth(rules.slotW)
	// Refresh the channel's spatial snapshot once before each slot-event
	// batch, so the snapshot instant — and the receiver order it fixes, which
	// feeds the channel's random draws — is the batch's, whatever its events
	// query. The goldens move without it.
	s.SetBatchPrepare(ch.RefreshGrid)
	n.peers = make([]*Peer, len(models))
	for i := range models {
		n.peers[i] = &Peer{
			id:     i,
			net:    n,
			userID: rnd.SplitIndex("user", i).Uint64(),
			cache:  ads.NewCache(cfg.CacheK),
			rnd:    rnd.SplitIndex("peer", i),
		}
	}
	if len(cfg.RSUPeers) > 0 {
		if err := n.initRSUs(cfg.RSUPeers); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// SetObserver installs the metrics observer. It must be called before Start;
// a nil observer resets to the no-op.
func (n *Network) SetObserver(obs Observer) {
	if obs == nil {
		n.obs = BaseObserver{}
		n.postObs = nil
		return
	}
	n.obs = obs
	n.postObs, _ = obs.(PostponeObserver)
}

// Channel returns the wireless channel.
func (n *Network) Channel() *radio.Channel { return n.ch }

// Config returns the protocol configuration (after defaulting).
func (n *Network) Config() Config { return n.cfg }

// NumPeers returns the number of peers.
func (n *Network) NumPeers() int { return len(n.peers) }

// Peer returns peer i.
func (n *Network) Peer(i int) *Peer { return n.peers[i] }

// SetPeerOnline powers peer i's radio on or off. Offline peers keep their
// caches (the device is pocketed, not wiped) but neither send nor receive —
// the paper's issuer "going off-line" after spreading an ad, or general
// churn.
func (n *Network) SetPeerOnline(i int, on bool) error {
	return n.ch.SetOnline(i, on)
}

// Start arms the per-peer gossip schedulers. For round-based variants every
// peer's round fires at a random phase slot of [0, Δt) (Rules.Phase) — the
// paper's peers "work asynchronously". Under Optimized Gossiping-2 entries
// schedule themselves, so no per-peer round event is needed. Start must be
// called exactly once, before the simulation runs past 0.
func (n *Network) Start() {
	if n.started {
		panic("core: Network.Start called twice")
	}
	n.started = true
	switch {
	case n.cfg.Protocol == RelevanceExchange:
		for _, p := range n.peers {
			p.startRelevance()
		}
	case n.cfg.Protocol.isAsync():
		for _, p := range n.peers {
			p.startAsync()
		}
	case n.cfg.Protocol.isGossip() && !n.cfg.Protocol.usesOpt2():
		for _, p := range n.peers {
			p := p
			p.roundSlot = n.rules.Phase(p.rnd)
			p.roundEv = n.sim.ScheduleSlot(p.roundSlot, p.gossipRound)
		}
	}
	// The RSU backhaul syncs once per round under the gossip variants and the
	// async family (infrastructure keeps its wired link either way); the
	// flooding and relevance comparators run without infrastructure help so
	// their baselines stay the paper's.
	if n.rsu != nil && (n.cfg.Protocol.isGossip() || n.cfg.Protocol.isAsync()) {
		n.sim.Every(n.cfg.RoundTime, n.cfg.RoundTime, n.rsuBackhaul)
	}
}

// AdSpec describes an advertisement to issue.
type AdSpec struct {
	R        float64  // initial advertising radius, meters
	D        float64  // initial duration, seconds
	Category string   // ad type used for interest matching
	Keywords []string // extra interest keywords beyond the category
	Text     string   // payload
}

// IssueAd injects a new advertisement at the issuer's current position and
// the current simulation time, and performs the protocol's issue behavior:
// Restricted Flooding starts the issuer's periodic broadcast; gossip
// variants insert the ad into the issuer's cache and broadcast it once (the
// issuer may then "go off-line" — it keeps gossiping like any other peer,
// but the ad no longer depends on it).
func (n *Network) IssueAd(issuer int, spec AdSpec) (*ads.Advertisement, error) {
	if issuer < 0 || issuer >= len(n.peers) {
		return nil, fmt.Errorf("core: unknown issuer %d", issuer)
	}
	p := n.peers[issuer]
	ad, err := n.rules.NewAd(ads.ID{Issuer: uint32(issuer), Seq: p.nextSeq}, n.ch.PositionOf(issuer), n.sim.Now(), spec)
	p.nextSeq++
	if err != nil {
		return nil, err
	}
	n.obs.OnIssue(issuer, ad, n.sim.Now())
	// The issuer trivially holds its own ad: record the delivery so metrics
	// denominators and numerators agree.
	p.markReceived(ad)
	if n.cfg.Protocol == Flooding {
		p.startFloodCycle(ad)
		return ad, nil
	}
	if n.cfg.Protocol == RelevanceExchange {
		own := ad.Clone()
		rel := Relevance(own, 0, n.sim.Now())
		e, overflow := p.cache.Insert(own, rel)
		if overflow {
			if victim := p.cache.EvictLowest(); victim != nil {
				n.obs.OnEvict(p.id, victim.Ad.ID, n.sim.Now())
			}
		}
		p.broadcastAd(e)
		return ad, nil
	}
	// Self-deliver, and under the gossip variants spread once. The pairwise
	// family has no broadcast primitive: its ads travel only over established
	// exchanges.
	own := ad.Clone()
	e := p.admit(own, false)
	if !n.cfg.Protocol.isAsync() {
		if e == nil { // the issuer's full cache ranked its own ad lowest: it is still sent once
			e = &ads.Entry{Ad: own}
		}
		p.broadcastAd(e)
	}
	return ad, nil
}

// deliver routes an arriving frame to the receiving peer's protocol handler.
func (n *Network) deliver(to int, f radio.Frame) {
	p := n.peers[to]
	switch payload := f.Payload.(type) {
	case gossipFrame:
		if n.cfg.Protocol == RelevanceExchange {
			p.handleRelevance(payload)
		} else {
			p.handleGossip(payload, f.From)
		}
	case floodFrame:
		p.handleFlood(payload)
	case *asyncFrame:
		p.handleAsync(payload, f.From)
		n.recycleAsync(payload)
	default:
		panic(fmt.Sprintf("core: unknown frame payload %T", f.Payload))
	}
}

// Peer is one mobile device participating in the network.
type Peer struct {
	id        int
	net       *Network
	userID    uint64
	interests map[string]bool
	cache     *ads.Cache
	rnd       *rng.Stream
	nextSeq   uint32
	ticker    *sim.Ticker
	// isRSU marks fixed roadside-unit peers (see rsu.go).
	isRSU bool

	// roundEv and roundSlot drive the round-based gossip variants: one slot
	// event per peer, rescheduled a whole round (RoundSlots slots) ahead
	// after each round.
	roundEv   *sim.Event
	roundSlot int64

	// relayed maps ad → flooding relay bookkeeping, nil until the first
	// relay; entries are pruned once the ad is past its advertising duration
	// D (see pruneRelayed).
	relayed      map[ads.ID]relayMark
	relayedSweep float64
	// relevance holds the Relevance Exchange comparator's state, nil under
	// the paper's own protocols.
	relevance *relevancePeerState
	// async holds the pairwise-family connection manager state, nil under
	// every round-based protocol.
	async *asyncPeerState
}

// Cache returns the peer's advertisement cache.
func (p *Peer) Cache() *ads.Cache { return p.cache }

// SetInterests replaces the peer's interest keywords.
func (p *Peer) SetInterests(keywords ...string) {
	p.interests = make(map[string]bool, len(keywords))
	for _, k := range keywords {
		p.interests[k] = true
	}
}

// HasReceived reports whether the peer has ever heard the given ad.
func (p *Peer) HasReceived(id ads.ID) bool {
	set := p.net.heard[id]
	return set != nil && set[p.id>>6]&(1<<(p.id&63)) != 0
}

// IsRSU reports whether the peer is a fixed roadside unit.
func (p *Peer) IsRSU() bool { return p.isRSU }

// Position returns the peer's current position.
func (p *Peer) Position() geo.Point { return p.net.ch.PositionOf(p.id) }

// broadcastAd transmits the entry's ad to all neighbors. The frame shares
// the cached snapshot instead of cloning it; marking the entry Shared makes
// any later local mutation copy first (copy-on-write), so the in-flight
// snapshot stays immutable — exactly the independent "message copy" the old
// per-broadcast clone produced, without the per-broadcast allocation. A
// powered-down peer transmits nothing (and counts nothing).
func (p *Peer) broadcastAd(e *ads.Entry) {
	if !p.net.ch.Online(p.id) {
		return
	}
	snap := e.Ad
	e.Shared = true
	bytes := snap.WireSize()
	p.net.obs.OnBroadcast(p.id, snap.ID, bytes, p.net.sim.Now())
	p.net.ch.Broadcast(radio.Frame{From: p.id, Payload: gossipFrame{ad: snap}, Bytes: bytes})
}

// broadcastAdTo is broadcastAd to a receiver list the caller already queried
// at this instant, so the neighbor query does not run twice.
func (p *Peer) broadcastAdTo(e *ads.Entry, recv []int) {
	if !p.net.ch.Online(p.id) {
		return
	}
	snap := e.Ad
	e.Shared = true
	bytes := snap.WireSize()
	p.net.obs.OnBroadcast(p.id, snap.ID, bytes, p.net.sim.Now())
	p.net.ch.BroadcastTo(radio.Frame{From: p.id, Payload: gossipFrame{ad: snap}, Bytes: bytes}, recv)
}

// markReceived records delivery and fires OnFirstReceive exactly once.
func (p *Peer) markReceived(ad *ads.Advertisement) {
	set := p.net.heard[ad.ID]
	if set == nil {
		set = make([]uint64, (len(p.net.peers)+63)/64)
		p.net.heard[ad.ID] = set
	}
	w, bit := p.id>>6, uint64(1)<<(p.id&63)
	if set[w]&bit != 0 {
		return
	}
	set[w] |= bit
	if p.isRSU && p.net.rsu.obsDeliveries != nil {
		p.net.rsu.obsDeliveries.Inc()
	}
	p.net.obs.OnFirstReceive(p.id, ad, p.net.sim.Now())
}

// handleGossip implements Algorithms 1 and 3: duplicate ads merge popularity
// state and (under Optimization Mechanism 2) postpone the entry's next
// gossip; new ads are ranked, cached and scheduled.
func (p *Peer) handleGossip(f gossipFrame, from int) {
	n := p.net
	now := n.sim.Now()
	ad := f.ad
	if ad.Expired(now) {
		return // stale in-flight copy
	}
	// A cached ad was marked received when admitted: a duplicate, the common
	// case, needs the cache probe only.
	if e := p.cache.Get(ad.ID); e != nil {
		n.obs.OnDuplicate(p.id, ad.ID, now)
		n.rules.Merge(e, ad)
		if n.cfg.Protocol.usesOpt2() {
			p.postpone(e, from)
		}
		return
	}
	p.markReceived(ad)
	// Copy-on-write: adopt the frame's immutable snapshot; Admit clones it
	// only when a popularity update is about to write to it, and later
	// merges go through Entry.Own.
	p.admit(ad, true)
}

// admit is the one way an ad the peer does not hold enters its cache —
// Algorithm 1's insert branch (Rules.Admit) for radio receptions, IssueAd and
// the RSU backhaul alike, after the caller's markReceived — plus what the
// simulator adds to it: the eviction events, the victim's timer cancelled
// and, under Optimization Mechanism 2, the new entry's timer. nil means the
// newcomer was its own victim: no timer then, and evicting takes no event
// sequence number, so surviving events keep their (time, seq) order.
func (p *Peer) admit(ad *ads.Advertisement, shared bool) *ads.Entry {
	n := p.net
	now := n.sim.Now()
	e, victim := n.rules.Admit(p.cache, p.rnd, ad, shared, p.userID, p.interests, p.isRSU, p.Position(), now)
	if victim != nil {
		p.cancelEntryTimer(victim)
		n.obs.OnEvict(p.id, victim.Ad.ID, now)
	}
	if e == nil {
		n.obs.OnEvict(p.id, ad.ID, now)
	} else if n.cfg.Protocol.usesOpt2() {
		p.armEntryTimer(e)
	}
	return e
}

// gossipEntry is one entry's step (Rules.Step) with its effect: an expired
// entry is reported, a live one broadcast when the coin says so.
func (p *Peer) gossipEntry(e *ads.Entry, pos geo.Point, now float64) bool {
	live, send := p.net.rules.Step(p.cache, p.rnd, e, p.isRSU, pos, now)
	if !live {
		p.net.obs.OnExpire(p.id, e.Ad.ID, now)
	} else if send {
		p.broadcastAd(e)
	}
	return live
}

// gossipRound is Algorithm 2: one gossip step per cached entry, in cache
// order, then the peer's next round a whole round (RoundSlots slots) ahead on
// the slot grid.
func (p *Peer) gossipRound() {
	n := p.net
	now, pos := n.sim.Now(), p.Position()
	p.cache.ForEach(func(e *ads.Entry) { p.gossipEntry(e, pos, now) })
	p.roundSlot += int64(n.cfg.RoundSlots)
	n.sim.RescheduleSlot(p.roundEv, p.roundSlot)
}

// armEntryTimer schedules an entry's first gossip (Rules.FirstDue):
// Optimized Gossiping-2 gives every cache entry its own time handler.
func (p *Peer) armEntryTimer(e *ads.Entry) {
	n := p.net
	e.Slot = n.rules.FirstDue(n.sim.Now())
	e.Timer = n.sim.ScheduleSlot(e.Slot, func() { p.entryRound(e) })
}

// cancelEntryTimer cancels an evicted/expired entry's pending timer.
func (p *Peer) cancelEntryTimer(e *ads.Entry) {
	if ev, ok := e.Timer.(*sim.Event); ok && ev != nil {
		p.net.sim.Cancel(ev)
	}
}

// entryRound is Algorithm 4's time handler for one entry timer: the entry's
// gossip step and, when the entry survives, its reschedule one round of
// slots later ("reschedule at t+Δt"). The timer belongs to the entry, not to
// the ad's ID: a copy of the ad admitted again after this entry left the
// cache has a timer of its own, and this one does nothing.
func (p *Peer) entryRound(e *ads.Entry) {
	n := p.net
	if !e.Cached() || !p.gossipEntry(e, p.Position(), n.sim.Now()) {
		return
	}
	e.Slot += int64(n.cfg.RoundSlots)
	if ev, ok := e.Timer.(*sim.Event); ok {
		n.sim.RescheduleSlot(ev, e.Slot)
	}
}

// postpone applies Algorithm 3's overhearing rule (Rules.Postpone) with the
// transmission-area overlap with the overheard sender and the angle between
// this peer's velocity and the line toward the sender, and moves the entry's
// timer to the postponed slot.
func (p *Peer) postpone(e *ads.Entry, from int) {
	n := p.net
	overlap := n.ch.OverlapWith(from, p.id)
	toSender := n.ch.PositionOf(from).Sub(n.ch.PositionOf(p.id))
	slots := n.rules.Postpone(e, overlap, geo.AngleBetween(n.ch.VelocityOf(p.id), toSender))
	if n.postObs != nil {
		n.postObs.OnPostpone(p.id, e.Ad.ID, float64(slots)*n.rules.slotW, n.sim.Now())
	}
	if ev, ok := e.Timer.(*sim.Event); ok {
		n.sim.RescheduleSlot(ev, e.Slot)
	}
}

// startFloodCycle arms the Restricted Flooding issuer loop: every round the
// issuer broadcasts the ad with the current (decaying) radius embedded,
// until the radius collapses to zero at age D. The issuer must stay online
// for the whole advertising period — the paper's main robustness argument
// against this baseline.
func (p *Peer) startFloodCycle(ad *ads.Advertisement) {
	n := p.net
	cycle := uint32(0)
	var tk *sim.Ticker
	tk = n.sim.Every(0, n.cfg.RoundTime, func() {
		age := ad.Age(n.sim.Now())
		rt := RadiusAt(n.cfg.Params, ad.R, ad.D, age)
		if rt <= 0 {
			tk.Stop()
			return
		}
		cycle++
		// The flood path never mutates the ad after issue — receivers relay
		// the frame as-is — so every cycle can share the issuer's snapshot.
		p.broadcastFlood(floodFrame{ad: ad, cycle: cycle, radius: rt})
	})
}

// broadcastFlood transmits a flood frame.
func (p *Peer) broadcastFlood(f floodFrame) {
	if !p.net.ch.Online(p.id) {
		return
	}
	bytes := f.ad.WireSize() + floodHeaderBytes
	p.net.obs.OnBroadcast(p.id, f.ad.ID, bytes, p.net.sim.Now())
	p.net.ch.Broadcast(radio.Frame{From: p.id, Payload: f, Bytes: bytes})
}

// relayMark is the flooding relay bookkeeping for one ad: the last cycle
// this peer relayed and when the ad stops being advertised — after which
// the mark can be dropped (an expired ad is discarded before the relay
// check, so a pruned mark can never readmit a live duplicate).
type relayMark struct {
	cycle  uint32
	expiry float64
}

// pruneRelayed sweeps expired relay marks, at most once per round so the
// sweep cost amortizes to O(1) per received frame.
func (p *Peer) pruneRelayed(now float64) {
	if now < p.relayedSweep {
		return
	}
	p.relayedSweep = now + p.net.cfg.RoundTime
	for id, m := range p.relayed {
		if now >= m.expiry {
			delete(p.relayed, id)
		}
	}
}

// handleFlood implements the Restricted Flooding relay rule: a receiver
// inside the embedded radius relays each cycle's message exactly once;
// receivers outside the radius absorb but do not relay.
func (p *Peer) handleFlood(f floodFrame) {
	n := p.net
	now := n.sim.Now()
	if f.ad.Expired(now) {
		return
	}
	p.markReceived(f.ad)
	p.pruneRelayed(now)
	if last, ok := p.relayed[f.ad.ID]; ok && last.cycle >= f.cycle {
		n.obs.OnDuplicate(p.id, f.ad.ID, now)
		return
	}
	if p.Position().Dist(f.ad.Origin) > f.radius {
		return
	}
	if p.relayed == nil {
		p.relayed = make(map[ads.ID]relayMark)
	}
	p.relayed[f.ad.ID] = relayMark{cycle: f.cycle, expiry: f.ad.IssuedAt + f.ad.D}
	p.broadcastFlood(f)
}
