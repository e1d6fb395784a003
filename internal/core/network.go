package core

import (
	"fmt"
	"math"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/obs"
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

	// slotW is the round-phase slot width RoundTime/RoundSlots, the
	// simulator's slot width. Round and entry timers are scheduled by integer
	// slot (sim.ScheduleSlot), whose instant is always slot·slotW, never
	// accumulated in floating point, so every event meant for the same slot
	// lands on a bit-identical instant — the precondition for batching them.
	slotW float64
	// nbrScratch, seenStamp and stamp serve the Relevance Exchange rounds (see
	// senseEncounter): the shared neighbour-query buffer, one mark per peer,
	// and the value the current call marks with.
	nbrScratch []int
	seenStamp  []uint32
	stamp      uint32
	// rank scores cache entries for rankOverflow; the counters tell its verdicts.
	rank                                      scorer
	overflows, overflowDropped, overflowExact *obs.Counter

	started bool
}

// New builds a network of len(models) peers moving per the given mobility
// models, communicating over a channel with the given radio configuration,
// and running cfg.Protocol. The rnd stream seeds all protocol randomness;
// the channel's jitter/loss randomness is split from it too.
func New(s *sim.Simulator, radioCfg radio.Config, models []mobility.Model, cfg Config, rnd *rng.Stream) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("core: no peers")
	}
	cfg.Popularity = cfg.Popularity.withDefaults()
	if cfg.RoundSlots == 0 {
		cfg.RoundSlots = DefaultRoundSlots
	}
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
		cfg:       cfg,
		sim:       s,
		obs:       BaseObserver{},
		rnd:       rnd,
		slotW:     cfg.RoundTime / float64(cfg.RoundSlots),
		rank:      newScorer(cfg),
		overflows: new(obs.Counter), overflowDropped: new(obs.Counter), overflowExact: new(obs.Counter),
	}
	ch, err := radio.New(s, radioCfg, models, n.deliver, rnd.Split("radio"))
	if err != nil {
		return nil, err
	}
	n.ch = ch
	s.SetSlotWidth(n.slotW)
	// Refresh the channel's spatial snapshot before each split-event batch's
	// decision phase, so the snapshot instant — and the candidate order it
	// fixes — is the batch's, not that of whichever decide queries first.
	s.SetBatchPrepare(ch.RefreshGrid)
	n.peers = make([]*Peer, len(models))
	for i := range models {
		n.peers[i] = &Peer{
			id:        i,
			net:       n,
			userID:    rnd.SplitIndex("user", i).Uint64(),
			interests: make(map[string]bool),
			cache:     ads.NewCache(cfg.CacheK),
			rnd:       rnd.SplitIndex("peer", i),
			received:  make(map[ads.ID]bool),
			relayed:   make(map[ads.ID]relayMark),
		}
	}
	if len(cfg.RSUPeers) > 0 {
		if err := n.initRSUs(cfg.RSUPeers); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// slotAfter returns the first slot index whose instant is ≥ t. The guard
// loop absorbs the one-ULP case where float64(k)·slotW rounds below t.
func (n *Network) slotAfter(t float64) int64 {
	k := int64(math.Ceil(t / n.slotW))
	for float64(k)*n.slotW < t {
		k++
	}
	return k
}

// slotsFor converts a relative timer delay into whole slots on the round
// grid, never fewer than one. Ceil alone maps a delay smaller than the
// float64 granularity of the grid — in particular an exact zero, which
// uniform draws can produce — to zero slots, which would reschedule a timer
// at its current instant; the executor dispatches same-instant split events
// as one batch, so a zero-slot reschedule re-fires the timer in the very
// batch that armed it.
func (n *Network) slotsFor(delay float64) int64 {
	slots := int64(math.Ceil(delay / n.slotW))
	if slots < 1 {
		slots = 1
	}
	return slots
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

// Sim returns the simulator driving this network.
func (n *Network) Sim() *sim.Simulator { return n.sim }

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
// peer's round fires at a random phase slot of [0, Δt) — the paper's peers
// "work asynchronously"; slot quantization (Config.RoundSlots) keeps the
// phase spread while letting same-slot peers share one batchable instant.
// Under Optimized Gossiping-2 entries schedule themselves, so no per-peer
// round event is needed. Start must be called exactly once, before the
// simulation runs past 0.
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
			p.roundSlot = int64(p.rnd.Intn(n.cfg.RoundSlots))
			p.roundEv = n.sim.ScheduleSlot(p.roundSlot, p.gossipDecide, p.gossipCommit)
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
	ad := &ads.Advertisement{
		ID:       ads.ID{Issuer: uint32(issuer), Seq: p.nextSeq},
		Origin:   n.ch.PositionOf(issuer),
		IssuedAt: n.sim.Now(),
		R:        spec.R,
		D:        spec.D,
		Category: spec.Category,
		Keywords: spec.Keywords,
		Text:     spec.Text,
	}
	p.nextSeq++
	if err := ad.Validate(); err != nil {
		return nil, err
	}
	if n.cfg.Popularity.Enabled {
		ad.Sketch = newSketch(n.cfg.Popularity)
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

	// roundEv and roundSlot drive the round-based gossip variants: one split
	// event per peer, rescheduled a whole round (RoundSlots slots) ahead
	// after each commit.
	roundEv   *sim.Event
	roundSlot int64

	// pendActs is the FIFO of decisions taken in the current batch's decision
	// phase, awaiting commit; actHead is the next act to commit and pendRecv
	// the arena that actSend receiver lists slice into. Decides and commits
	// both run in seq order, so the FIFO lines up.
	pendActs []entryAct
	actHead  int
	pendRecv []int

	// received marks ads this peer has ever heard (delivery bookkeeping).
	received map[ads.ID]bool
	// relayed maps ad → flooding relay bookkeeping; entries are pruned once
	// the ad is past its advertising duration D (see pruneRelayed).
	relayed      map[ads.ID]relayMark
	relayedSweep float64
	// relevance holds the Relevance Exchange comparator's state, nil under
	// the paper's own protocols.
	relevance *relevancePeerState
	// async holds the pairwise-family connection manager state, nil under
	// every round-based protocol.
	async *asyncPeerState
}

// ID returns the peer's index.
func (p *Peer) ID() int { return p.id }

// UserID returns the stable identity hashed into FM sketches.
func (p *Peer) UserID() uint64 { return p.userID }

// Cache returns the peer's advertisement cache.
func (p *Peer) Cache() *ads.Cache { return p.cache }

// SetInterests replaces the peer's interest keywords.
func (p *Peer) SetInterests(keywords ...string) {
	p.interests = make(map[string]bool, len(keywords))
	for _, k := range keywords {
		p.interests[k] = true
	}
}

// Interests returns the peer's interest set (shared map; do not mutate).
func (p *Peer) Interests() map[string]bool { return p.interests }

// Matches implements the paper's Match(ad, interest) predicate: the ad's
// category — or any of its keywords — is one of the peer's interests.
func (p *Peer) Matches(ad *ads.Advertisement) bool {
	return ad.MatchesAny(p.interests)
}

// HasReceived reports whether the peer has ever heard the given ad.
func (p *Peer) HasReceived(id ads.ID) bool { return p.received[id] }

// IsRSU reports whether the peer is a fixed roadside unit.
func (p *Peer) IsRSU() bool { return p.isRSU }

// Position returns the peer's current position.
func (p *Peer) Position() geo.Point { return p.net.ch.PositionOf(p.id) }

// forwardProb evaluates the protocol's probability function for ad at the
// peer's current position and the current time.
func (p *Peer) forwardProb(ad *ads.Advertisement) float64 {
	return p.forwardProbAt(ad, p.Position(), p.net.sim.Now())
}

// forwardProbAt is forwardProb at an explicit position and time — pure, so
// decision phases can call it.
func (p *Peer) forwardProbAt(ad *ads.Advertisement, pos geo.Point, now float64) float64 {
	n := p.net
	rt := RadiusAt(n.cfg.Params, ad.R, ad.D, ad.Age(now))
	d := pos.Dist(ad.Origin)
	if p.isRSU {
		// Infrastructure has no battery to save: a roadside unit inside the
		// ad's current radius always relays, outside it never does. rng.Bool
		// short-circuits 0 and 1 without consuming a draw, so RSU streams stay
		// aligned with their mobile-peer counterparts.
		if d <= rt {
			return 1
		}
		return 0
	}
	if n.cfg.Protocol.usesOpt1() {
		return forwardProbOpt1Rt(n.cfg.Params, d, ad.R, rt, n.cfg.DIS)
	}
	return forwardProbRt(n.cfg.Params, d, ad.R, rt)
}

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

// broadcastAdTo is broadcastAd against a receiver list computed in the
// decision phase, for commits whose neighbor query already ran there.
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
	if p.received[ad.ID] {
		return
	}
	p.received[ad.ID] = true
	if p.isRSU {
		r := p.net.rsu
		r.deliveries++
		if r.obsDeliveries != nil {
			r.obsDeliveries.Inc()
		}
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
		p.mergeDuplicate(e, ad)
		if n.cfg.Protocol.usesOpt2() {
			p.postpone(e, from)
		}
		return
	}
	p.markReceived(ad)
	// Copy-on-write: adopt the frame's immutable snapshot directly; clone
	// only when this peer is about to mutate it (a popularity update now —
	// later merges and enlargements go through Entry.Own).
	if p.popularityMutates(ad) {
		p.admit(ad.Clone(), false)
	} else {
		p.admit(ad, true)
	}
}

// admit is the one way an ad the peer does not hold enters its cache —
// Algorithm 1's insert branch for radio receptions, IssueAd and the RSU
// backhaul alike, after the caller's markReceived: popularity update, insert,
// overflow eviction and, under Optimization Mechanism 2, the entry's timer.
// own must be private to this peer unless shared is set. nil means the
// newcomer was its own victim: no timer then, and evicting takes no event
// sequence number, so surviving events keep their (time, seq) order. The tail
// is Algorithm 1 as written; rankOverflow first tries to name its victim
// without the refresh, and a doomed newcomer, the common case, never enters.
func (p *Peer) admit(own *ads.Advertisement, shared bool) *ads.Entry {
	p.applyPopularity(own)
	n := p.net
	prob, certain := 0.0, false
	if p.cache.Len() >= p.cache.K() && n.cfg.Eviction == EvictLowestProb {
		n.overflows.Inc()
		var victim *ads.Entry
		if victim, prob, certain = p.rankOverflow(own); !certain {
			n.overflowExact.Inc()
		} else if victim != nil {
			p.cache.Remove(victim.Ad.ID)
			p.cancelEntryTimer(victim)
			n.obs.OnEvict(p.id, victim.Ad.ID, n.sim.Now())
		} else {
			n.overflowDropped.Inc()
			n.obs.OnEvict(p.id, own.ID, n.sim.Now())
			return nil
		}
	}
	if !certain {
		prob = p.forwardProb(own)
	}
	e, overflow := p.cache.Insert(own, prob)
	e.Shared = shared
	if overflow && p.evictOne() == e {
		return nil
	}
	if n.cfg.Protocol.usesOpt2() {
		p.armEntryTimer(e)
	}
	return e
}

// rankOverflow names from scores the entry Algorithm 1 would evict once own
// joined the full cache, nil for own itself whose score is s, and reports
// whether that is certain: none is NaN and the lowest is an exact zero — the
// first in cache order loses, as in Cache.EvictLowest — or scoreMargin (10³ ×
// a score's error) below the runner-up. An RSU's 1/0 rule ties: never certain.
func (p *Peer) rankOverflow(own *ads.Advertisement) (victim *ads.Entry, s float64, certain bool) {
	pos, now := p.Position(), p.net.sim.Now()
	lo, next := math.Inf(1), math.Inf(1) // the two lowest scores; a NaN sticks in lo
	rank := func(ad *ads.Advertisement, e *ads.Entry) {
		if s = p.net.rank.score(pos.Dist(ad.Origin), ad.R, ad.D, ad.Age(now)); s < lo || s != s {
			lo, next, victim = s, lo, e
		} else if s < next {
			next = s
		}
	}
	p.cache.ForEach(func(e *ads.Entry) { rank(e.Ad, e) })
	rank(own, nil) // last, as the last in cache order
	return victim, s, !p.isRSU && (lo == 0 || next > lo*(1+scoreMargin))
}

// mergeDuplicate folds a duplicate message copy into the cached entry: FM
// sketches are OR-merged and enlarged propagation parameters adopted, the
// duplicate-insensitive semantics Section III.E requires (see DESIGN.md).
// When the duplicate would change nothing — no larger R or D and no sketch
// bit the cached copy lacks, the common case with or without the popularity
// mechanism — the shared snapshot is kept as-is.
func (p *Peer) mergeDuplicate(e *ads.Entry, in *ads.Advertisement) {
	if in == e.Ad {
		return // the cached snapshot itself came back around
	}
	mergeSketch := e.Ad.Sketch != nil && in.Sketch != nil && !e.Ad.Sketch.Covers(in.Sketch)
	if !mergeSketch && in.R <= e.Ad.R && in.D <= e.Ad.D {
		return
	}
	ad := e.Own()
	if mergeSketch {
		// Seed/shape mismatches cannot happen inside one network; ignore the
		// error to keep the hot path tight.
		_ = ad.Sketch.Merge(in.Sketch)
	}
	if in.R > ad.R {
		ad.R = in.R
	}
	if in.D > ad.D {
		ad.D = in.D
	}
}

// evictOne applies the configured overflow policy to a cache holding k+1
// entries and returns the evicted one. Under the paper's rule every entry's
// probability is first refreshed at the current position, as Algorithm 1 says.
func (p *Peer) evictOne() *ads.Entry {
	n := p.net
	var victim *ads.Entry
	switch n.cfg.Eviction {
	case EvictOldestFirst:
		victim = p.cache.EvictOldest()
	case EvictRandomEntry:
		k := p.rnd.Intn(p.cache.Len()) // the k-th entry in insertion order
		p.cache.ForEach(func(e *ads.Entry) {
			if k == 0 {
				victim = p.cache.Remove(e.Ad.ID)
			}
			k--
		})
	default: // EvictLowestProb
		p.cache.ForEach(func(e *ads.Entry) { e.Prob = p.forwardProb(e.Ad) })
		victim = p.cache.EvictLowest()
	}
	p.cancelEntryTimer(victim)
	n.obs.OnEvict(p.id, victim.Ad.ID, n.sim.Now())
	return victim
}

// actKind is the outcome a decision phase recorded for one cache entry.
type actKind uint8

const (
	// actGone marks a decide whose entry vanished — a placeholder so the
	// decide/commit FIFO stays aligned; commit skips it.
	actGone actKind = iota
	// actExpire removes the entry and fires OnExpire at commit.
	actExpire
	// actKeep refreshes the entry's probability without broadcasting.
	actKeep
	// actSend refreshes the probability and broadcasts to the receiver list
	// pendRecv[r0:r1] captured at decide time.
	actSend
)

// entryAct is one entry's gossip decision, taken in the batch's decision
// phase and applied by its commit phase.
type entryAct struct {
	e      *ads.Entry
	id     ads.ID
	prob   float64
	r0, r1 int32 // actSend receiver range in Peer.pendRecv
	kind   actKind
}

// decideEntry evaluates Algorithm 2/4's per-entry round step without side
// effects on shared state: expiry check, probability refresh at the peer's
// position, the forwarding coin flip from this peer's own RNG stream, and —
// on a send — the neighbor query, into peer-owned buffers. The matching
// mutations happen later in commitAct.
func (p *Peer) decideEntry(e *ads.Entry, now float64) {
	act := entryAct{e: e, id: e.Ad.ID}
	if e.Ad.Expired(now) {
		act.kind = actExpire
		p.pendActs = append(p.pendActs, act)
		return
	}
	ch := p.net.ch
	act.prob = p.forwardProbAt(e.Ad, ch.PositionOf(p.id), now)
	// The coin flip comes first so the peer's stream consumption does not
	// depend on its online state, mirroring the sequential round's
	// draw-then-try-to-send order.
	if p.rnd.Bool(act.prob) && ch.Online(p.id) {
		act.kind = actSend
		act.r0 = int32(len(p.pendRecv))
		p.pendRecv = ch.AppendNeighborsOf(p.pendRecv, p.id)
		act.r1 = int32(len(p.pendRecv))
	} else {
		act.kind = actKeep
	}
	p.pendActs = append(p.pendActs, act)
}

// commitAct applies the oldest pending decision: cache mutation, observer
// callbacks and the broadcast with its shared-stream jitter/impairment
// draws. Once the FIFO drains the buffers reset for the next batch.
func (p *Peer) commitAct() entryAct {
	act := p.pendActs[p.actHead]
	p.actHead++
	switch act.kind {
	case actExpire:
		p.cache.Remove(act.id)
		p.net.obs.OnExpire(p.id, act.id, p.net.sim.Now())
	case actKeep:
		act.e.Prob = act.prob
	case actSend:
		act.e.Prob = act.prob
		p.broadcastAdTo(act.e, p.pendRecv[act.r0:act.r1])
	}
	if p.actHead == len(p.pendActs) {
		p.actHead = 0
		p.pendActs = p.pendActs[:0]
		p.pendRecv = p.pendRecv[:0]
	}
	return act
}

// gossipDecide is Algorithm 2's decision phase: one pass over the cache
// recording, per entry, whether it expires, keeps quiet or broadcasts — and
// to whom. It writes only this peer's pending-act buffers and RNG stream.
func (p *Peer) gossipDecide() {
	now := p.net.sim.Now()
	p.cache.ForEach(func(e *ads.Entry) { p.decideEntry(e, now) })
}

// gossipCommit applies the round's decisions in cache order and reschedules
// the peer's next round a whole round (RoundSlots slots) ahead on the slot
// grid.
func (p *Peer) gossipCommit() {
	for p.actHead < len(p.pendActs) {
		p.commitAct()
	}
	n := p.net
	p.roundSlot += int64(n.cfg.RoundSlots)
	n.sim.RescheduleSlot(p.roundEv, p.roundSlot)
}

// armEntryTimer schedules an entry's first gossip one round from now,
// rounded up to the slot grid (Optimized Gossiping-2 gives every cache
// entry its own time handler; slotting makes coinciding timers batchable).
func (p *Peer) armEntryTimer(e *ads.Entry) {
	n := p.net
	e.Slot = n.slotAfter(n.sim.Now() + n.cfg.RoundTime)
	e.ScheduledAt = float64(e.Slot) * n.slotW
	e.Timer = n.sim.ScheduleSlot(e.Slot, func() { p.entryDecide(e) }, p.entryCommit)
}

// cancelEntryTimer cancels an evicted/expired entry's pending timer.
func (p *Peer) cancelEntryTimer(e *ads.Entry) {
	if ev, ok := e.Timer.(*sim.Event); ok && ev != nil {
		p.net.sim.Cancel(ev)
	}
}

// entryDecide is Algorithm 4's decision phase for one entry timer. Several
// timers of one peer may share a slot; their decides run in seq order, so the
// FIFO lines up with the commit order. The
// timer belongs to the entry, not to the ad's ID: a copy of the ad admitted
// again after this entry left the cache has a timer of its own.
func (p *Peer) entryDecide(e *ads.Entry) {
	if !e.Cached() {
		p.pendActs = append(p.pendActs, entryAct{id: e.Ad.ID, kind: actGone})
		return
	}
	p.decideEntry(e, p.net.sim.Now())
}

// entryCommit applies one entry timer's decision and, when the entry
// survives, reschedules it one round of slots later (Algorithm 4's
// "reschedule at t+Δt").
func (p *Peer) entryCommit() {
	act := p.commitAct()
	if act.kind != actKeep && act.kind != actSend {
		return
	}
	n := p.net
	e := act.e
	e.Slot += int64(n.cfg.RoundSlots)
	e.ScheduledAt = float64(e.Slot) * n.slotW
	if ev, ok := e.Timer.(*sim.Event); ok {
		n.sim.RescheduleSlot(ev, e.Slot)
	}
}

// postpone implements Algorithm 3's overhearing rule (Formula 4): push the
// entry's next gossip back by Δt·e^(p·(1+cos θ)/2), where p is the
// transmission-area overlap with the overheard sender and θ the angle
// between this peer's velocity and the line toward the sender. The interval
// is rounded up to whole slots (at least one) so the timer stays on the
// grid.
func (p *Peer) postpone(e *ads.Entry, from int) {
	n := p.net
	overlap := n.ch.OverlapWith(from, p.id)
	toSender := n.ch.PositionOf(from).Sub(n.ch.PositionOf(p.id))
	theta := geo.AngleBetween(n.ch.VelocityOf(p.id), toSender)
	slots := n.slotsFor(PostponeInterval(n.cfg.RoundTime, overlap, theta))
	if n.postObs != nil {
		n.postObs.OnPostpone(p.id, e.Ad.ID, float64(slots)*n.slotW, n.sim.Now())
	}
	e.Slot += slots
	e.ScheduledAt = float64(e.Slot) * n.slotW
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
	p.relayed[f.ad.ID] = relayMark{cycle: f.cycle, expiry: f.ad.IssuedAt + f.ad.D}
	p.broadcastFlood(f)
}
