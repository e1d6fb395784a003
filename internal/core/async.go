package core

// Asynchronous pairwise gossip — the "mobile telephone model" from the
// Newport line of related work (Gossip in a Smartphone Peer-to-Peer Network;
// Asynchronous Gossip in Smartphone Peer-to-Peer Networks). Instead of the
// paper's shared round clock and local broadcast, every peer wakes on its own
// exponential timer and holds at most Config.AsyncK simultaneous pairwise
// exchanges. A wake-up proposes a connection to one uniformly chosen radio
// neighbor; the neighbor answers accept (carrying its P(d,t)-sampled ads) or
// busy; the proposer completes the exchange with a transfer frame carrying
// its own sampled ads. Unanswered proposals and half-open exchanges release
// their connection slot after Config.AsyncTimeout.
//
// A scan is a slot event like a gossip round: it reads the batch's grid
// snapshot, so coinciding scans share one refresh. Scan instants land on the
// RoundSlots grid purely for that — there is no shared round instant.

import (
	"instantad/internal/ads"
	"instantad/internal/obs"
	"instantad/internal/radio"
	"instantad/internal/sim"
)

// asyncKind discriminates the pairwise-family wire frames.
type asyncKind uint8

const (
	// asyncPropose asks a neighbor to open an exchange.
	asyncPropose asyncKind = iota
	// asyncAccept grants the exchange and carries the responder's sampled ads.
	asyncAccept
	// asyncBusy declines: the responder is at its connection bound.
	asyncBusy
	// asyncTransfer completes the exchange with the proposer's sampled ads.
	asyncTransfer
)

// asyncFrame is the payload of every pairwise-family message. Frames travel
// by pointer and are recycled: sendAsync takes one from Network.asyncFree and
// deliver puts it back when its single receiver's handleAsync returns, so
// nothing may keep the frame or its ads slice past that call. A frame the
// channel drops is never delivered, hence never reused: the collector has it.
type asyncFrame struct {
	kind asyncKind
	conn uint64 // connection id: proposer index << 32 | proposer-local sequence
	ads  []*ads.Advertisement
}

// carriesAds reports whether frames of this kind carry the sender's sampled
// ads.
func (k asyncKind) carriesAds() bool { return k == asyncAccept || k == asyncTransfer }

// asyncHeaderBytes models the fixed wire overhead of an async frame: kind +
// flags (4), connection id (8), ad count (4).
const asyncHeaderBytes = 16

// asyncConn is one connection slot: a pending proposal on the proposer side,
// or a granted exchange awaiting its transfer on the responder side. A peer
// makes a slot the first time it needs one more and reuses it afterwards; the
// slot owns its reclaim timer, whose callback is bound to the slot, not to a
// connection id — it reclaims whatever connection the slot holds when it
// fires, and closeConn cancels it before the slot can be handed out again.
type asyncConn struct {
	id       uint64
	peer     int
	proposer bool
	timer    *sim.Event
}

// asyncPeerState is the per-peer connection manager.
type asyncPeerState struct {
	// scanEv is the peer's wake-up timer (a slot event); slot is its integer
	// position on the slot grid.
	scanEv *sim.Event
	slot   int64
	// conns are the occupied connection slots, ≤ Config.AsyncK, in open order;
	// idle are the released ones awaiting reuse.
	conns []*asyncConn
	idle  []*asyncConn
	// nextConn numbers this peer's proposals for connection ids.
	nextConn uint32
	// cand is the reusable neighbor-candidate buffer and one the reusable
	// single-receiver list (the channel reads, never retains, receiver
	// slices).
	cand []int
	one  [1]int
}

// startAsync arms the peer's scan timer. The initial phase is uniform in
// [0, AsyncMeanDelay) so the population desynchronizes from t = 0; every
// later wake-up draws an exponential gap, so no two peers share a round
// structure — the slot grid is retained purely as batching granularity.
func (p *Peer) startAsync() {
	n := p.net
	st := &asyncPeerState{}
	p.async = st
	st.slot = n.slotAfter(p.rnd.Range(0, n.cfg.AsyncMeanDelay))
	st.scanEv = n.sim.ScheduleSlot(st.slot, p.asyncScan)
}

// connectedTo reports whether a connection slot already involves peer j.
func (st *asyncPeerState) connectedTo(j int) bool {
	for _, c := range st.conns {
		if c.peer == j {
			return true
		}
	}
	return false
}

// asyncScan is the peer's wake-up: draw the next inter-scan gap (always, so
// stream consumption does not depend on online or connection state) and
// reschedule a clamped whole number of slots ahead; then, when a connection
// slot is free and the radio is on, propose to a uniformly chosen neighbor
// not already connected.
func (p *Peer) asyncScan() {
	n := p.net
	st := p.async
	st.slot += n.slotsFor(p.rnd.Exp(1 / n.cfg.AsyncMeanDelay))
	n.sim.RescheduleSlot(st.scanEv, st.slot)
	if len(st.conns) >= n.cfg.AsyncK || !n.ch.Online(p.id) {
		return
	}
	st.cand = n.ch.AppendNeighborsOf(st.cand[:0], p.id)
	w := 0
	for _, j := range st.cand {
		if !st.connectedTo(j) {
			st.cand[w] = j
			w++
		}
	}
	if w == 0 {
		return
	}
	target := st.cand[p.rnd.Intn(w)]
	id := uint64(uint32(p.id))<<32 | uint64(st.nextConn)
	st.nextConn++
	p.openConn(id, target, true)
	if ao := n.asyncObs; ao != nil {
		ao.proposals.Inc()
	}
	p.sendAsync(asyncPropose, id, target)
}

// openConn occupies a connection slot and arms its reclaim timeout. Re-arming
// an idle slot's fired or cancelled timer enqueues it with a fresh sequence
// number, exactly as scheduling a new event does, so the event order does not
// depend on whether the slot is new.
func (p *Peer) openConn(id uint64, peer int, proposer bool) {
	n := p.net
	st := p.async
	var c *asyncConn
	if k := len(st.idle); k > 0 {
		c = st.idle[k-1]
		st.idle = st.idle[:k-1]
		n.sim.Reschedule(c.timer, n.sim.Now()+n.cfg.AsyncTimeout)
	} else {
		c = new(asyncConn)
		c.timer = n.sim.After(n.cfg.AsyncTimeout, func() { p.asyncTimeout(c) })
	}
	c.id, c.peer, c.proposer = id, peer, proposer
	st.conns = append(st.conns, c)
	if ao := n.asyncObs; ao != nil {
		ao.concurrent.Observe(float64(len(st.conns)))
	}
}

// release takes the slot at conns[i] out of service.
func (st *asyncPeerState) release(i int) {
	st.idle = append(st.idle, st.conns[i])
	st.conns = append(st.conns[:i], st.conns[i+1:]...)
}

// closeConn releases the slot holding connection id, cancelling its timeout.
// It reports whether the slot was still held (false: the timeout already
// reclaimed it, so the arriving frame is a straggler).
func (p *Peer) closeConn(id uint64) bool {
	st := p.async
	for i, c := range st.conns {
		if c.id == id {
			p.net.sim.Cancel(c.timer)
			st.release(i)
			return true
		}
	}
	return false
}

// asyncTimeout is slot c's timer firing: the handshake it holds never
// completed — a proposal to an offline or out-of-range peer, a lost reply, or
// a transfer dropped by the channel. A pending timer means an occupied slot
// (closeConn cancels before it releases).
func (p *Peer) asyncTimeout(c *asyncConn) {
	st := p.async
	for i := range st.conns {
		if st.conns[i] == c {
			st.release(i)
			if ao := p.net.asyncObs; ao != nil {
				ao.timeouts.Inc()
			}
			return
		}
	}
}

// sendAsync transmits one pairwise frame to a single receiver; accept and
// transfer frames carry the ads sampleAds draws now. Ad-bearing frames account
// one OnBroadcast per carried ad — the same unit a round protocol's broadcast
// counts — plus the frame's fixed header on the wire.
func (p *Peer) sendAsync(kind asyncKind, conn uint64, to int) {
	n := p.net
	var f *asyncFrame
	if k := len(n.asyncFree); k > 0 {
		f = n.asyncFree[k-1]
		n.asyncFree = n.asyncFree[:k-1]
	} else {
		f = new(asyncFrame)
	}
	f.kind, f.conn = kind, conn
	if kind.carriesAds() {
		p.sampleAds(f)
	}
	if !n.ch.Online(p.id) {
		return
	}
	now := n.sim.Now()
	bytes := asyncHeaderBytes
	for _, ad := range f.ads {
		size := ad.WireSize()
		bytes += size
		n.obs.OnBroadcast(p.id, ad.ID, size, now)
	}
	if ao := n.asyncObs; ao != nil && kind.carriesAds() {
		ao.bytes.Observe(float64(bytes))
	}
	st := p.async
	st.one[0] = to
	n.ch.BroadcastTo(radio.Frame{From: p.id, Payload: f, Bytes: bytes}, st.one[:])
}

// recycleAsync returns a delivered frame to the free list, dropping its ad
// references so an idle frame pins nothing.
func (n *Network) recycleAsync(f *asyncFrame) {
	clear(f.ads)
	f.ads = f.ads[:0]
	n.asyncFree = append(n.asyncFree, f)
}

// sampleAds walks the cache applying the paper's forwarding rule per
// exchange: expired entries are dropped, every survivor's probability is
// refreshed at the current position, and each is appended to the frame's ad
// list with probability P(d,t). Included snapshots are marked Shared so later
// local mutations copy first (the same copy-on-write contract as
// broadcastAd).
func (p *Peer) sampleAds(f *asyncFrame) {
	n := p.net
	now := n.sim.Now()
	p.cache.ForEach(func(e *ads.Entry) {
		if e.Ad.Expired(now) {
			p.cache.Remove(e.Ad.ID)
			n.obs.OnExpire(p.id, e.Ad.ID, now)
			return
		}
		e.Prob = p.forwardProb(e.Ad)
		if !p.rnd.Bool(e.Prob) {
			return
		}
		e.Shared = true
		f.ads = append(f.ads, e.Ad)
	})
}

// receiveAds absorbs an exchange payload through the regular gossip insert
// path (duplicate merge, popularity, overflow eviction); opt-2 timers and
// postponement stay off because usesOpt2 is false for the async family.
func (p *Peer) receiveAds(list []*ads.Advertisement, from int) {
	for _, ad := range list {
		p.handleGossip(gossipFrame{ad: ad}, from)
	}
}

// handleAsync routes one arriving pairwise frame.
func (p *Peer) handleAsync(f *asyncFrame, from int) {
	n := p.net
	st := p.async
	switch f.kind {
	case asyncPropose:
		if len(st.conns) >= n.cfg.AsyncK || st.connectedTo(from) {
			if ao := n.asyncObs; ao != nil {
				ao.busy.Inc()
			}
			p.sendAsync(asyncBusy, f.conn, from)
			return
		}
		p.openConn(f.conn, from, false)
		p.sendAsync(asyncAccept, f.conn, from)
	case asyncAccept:
		// A straggler accept (our proposal already timed out) still carries
		// usable data — absorb it — but the handshake is dead: no transfer,
		// no completed-exchange count, and the responder's hold will time out.
		live := p.closeConn(f.conn)
		p.receiveAds(f.ads, from)
		if !live {
			return
		}
		if ao := n.asyncObs; ao != nil {
			ao.exchanges.Inc()
		}
		p.sendAsync(asyncTransfer, f.conn, from)
	case asyncBusy:
		p.closeConn(f.conn)
	case asyncTransfer:
		p.closeConn(f.conn)
		p.receiveAds(f.ads, from)
	}
}

// asyncInstruments are the pairwise-family connection instruments.
type asyncInstruments struct {
	proposals  *obs.Counter
	busy       *obs.Counter
	exchanges  *obs.Counter
	timeouts   *obs.Counter
	concurrent *obs.Histogram
	bytes      *obs.Histogram
}

// instrumentAsync registers the connection instruments; a no-op for
// round-based protocols.
func (n *Network) instrumentAsync(reg *obs.Registry) {
	if !n.cfg.Protocol.isAsync() {
		return
	}
	k := n.cfg.AsyncK
	if k < 4 {
		k = 4
	}
	n.asyncObs = &asyncInstruments{
		proposals: reg.Counter("sim_async_proposals_total",
			"Pairwise connection proposals sent."),
		busy: reg.Counter("sim_async_busy_total",
			"Proposals declined because the responder was at its connection bound."),
		exchanges: reg.Counter("sim_async_exchanges_total",
			"Pairwise exchanges completed (accept received by the proposer)."),
		timeouts: reg.Counter("sim_async_timeouts_total",
			"Connection slots reclaimed by timeout before the handshake finished."),
		concurrent: reg.Histogram("sim_async_concurrent_exchanges",
			"Occupied connection slots at each slot acquisition.",
			obs.LinearBuckets(1, 1, k)),
		bytes: reg.Histogram("sim_async_exchange_bytes",
			"Wire bytes of ad-bearing exchange frames (accept + transfer).",
			obs.ExpBuckets(64, 2, 12)),
	}
}
