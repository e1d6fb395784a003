package core

import (
	"instantad/internal/ads"
	"instantad/internal/sim"
)

// This file implements the Opportunistic Resource Exchange comparator from
// the paper's related work (Section II): the inter-vehicle dissemination
// model the paper contrasts its gossiping design against. Resources carry a
// relevance that decays linearly with age and with distance from the
// generating location; peers exchange their most relevant resources when
// they encounter each other, rather than gossiping every round.
//
// The paper's critique — which the comparator benches make measurable — is
// that exchange-at-encounter couples dissemination to the meeting rate: in
// sparse or slow networks new entrants wait for an encounter, and in dense
// ones the relevance ranking alone does not bound traffic the way the
// probability field does.

// Relevance is the comparator's ranking function: linear decay in both age
// and distance, clamped at zero. An expired or out-of-area resource has
// relevance 0 and is dropped.
func Relevance(ad *ads.Advertisement, dist, now float64) float64 {
	ageFactor := 1 - ad.Age(now)/ad.D
	if ageFactor <= 0 {
		return 0
	}
	distFactor := 1 - dist/ad.R
	if distFactor <= 0 {
		return 0
	}
	return ageFactor * distFactor
}

// relevancePeerState is one peer's row of the comparator's table: the
// ids sensed in range at the previous round, in query order. Its capacity
// follows the largest neighbourhood the peer has had, with a quarter of
// headroom so that a peer outgrows it two or three times in a run, not at
// every new record.
type relevancePeerState struct {
	last []int32
}

// startRelevance arms the encounter detector: every round the peer samples
// its neighborhood; the appearance of any peer it did not see last round is
// an encounter, and triggers one broadcast of every positive-relevance
// cached resource. The per-round trigger bounds traffic at cache-size
// frames per round per peer. The caller has made the comparator's tables
// (Network.relevance, Network.seenStamp); the returned ticker is the round's.
func (p *Peer) startRelevance() *sim.Ticker {
	n := p.net
	offset := p.rnd.Range(0, n.cfg.RoundTime)
	return n.sim.Every(offset, n.cfg.RoundTime, p.relevanceRound)
}

// senseEncounter samples the neighbourhood into the network's query scratch,
// reports whether it holds a peer that was not there at the previous round,
// and remembers it for the next. Membership is a stamp pass: last round's ids
// are marked in Network.seenStamp with a value no earlier call used, then the
// new list is scanned for an unmarked id — nothing is cleared between calls,
// and the answer is an OR over the new list, so neither list's order matters.
// Rounds are plain events, so one scratch and one stamp table serve every
// peer.
//
// A powered-down radio senses nobody: its round records an empty
// neighbourhood, so whoever is in range when it powers back up is an
// encounter, even the peers it sat beside all along.
func (p *Peer) senseEncounter() bool {
	n := p.net
	st := &n.relevance[p.id]
	n.nbrScratch = n.nbrScratch[:0]
	if n.ch.Online(p.id) {
		n.nbrScratch = n.ch.AppendNeighborsOf(n.nbrScratch, p.id)
	}
	n.stamp++
	if n.stamp == 0 { // wrapped: stale marks could now collide
		clear(n.seenStamp)
		n.stamp = 1
	}
	for _, j := range st.last {
		n.seenStamp[j] = n.stamp
	}
	if k := len(n.nbrScratch); cap(st.last) < k {
		st.last = make([]int32, k, k+k/4+4)
	}
	st.last = st.last[:len(n.nbrScratch)]
	encountered := false
	for i, j := range n.nbrScratch {
		if n.seenStamp[j] != n.stamp {
			encountered = true
		}
		st.last[i] = int32(j)
	}
	return encountered
}

// relevanceRound runs one encounter-detection cycle.
func (p *Peer) relevanceRound() {
	p.relevanceExchange(p.senseEncounter())
}

// relevanceExchange is the round after the sensing: refresh relevance and
// drop dead resources regardless of encounters, then, on an encounter,
// broadcast what is left — to the neighbours senseEncounter just left in the
// network's scratch, which are the receivers a broadcast at this instant
// would query for again.
func (p *Peer) relevanceExchange(encountered bool) {
	n := p.net
	now := n.sim.Now()
	pos := p.Position()
	p.cache.ForEach(func(e *ads.Entry) {
		e.Prob = Relevance(e.Ad, pos.Dist(e.Ad.Origin), now)
		if e.Prob == 0 {
			p.cache.Remove(e.Ad.ID)
			n.obs.OnExpire(p.id, e.Ad.ID, now)
		}
	})
	if encountered {
		p.cache.ForEach(func(e *ads.Entry) { p.broadcastAdTo(e, n.nbrScratch) })
	}
}

// handleRelevance processes a received resource under the comparator:
// duplicates refresh nothing (relevance is recomputed from the message's
// immutable origin/time fields); new resources enter the relevance-ranked
// cache, evicting the least relevant when full.
func (p *Peer) handleRelevance(f gossipFrame) {
	n := p.net
	now := n.sim.Now()
	ad := f.ad
	rel := Relevance(ad, p.Position().Dist(ad.Origin), now)
	if rel == 0 {
		return // dead on arrival
	}
	// A cached resource was marked received when it was inserted: a duplicate,
	// the common case, needs the cache probe only.
	if p.cache.Get(ad.ID) != nil {
		n.obs.OnDuplicate(p.id, ad.ID, now)
		return
	}
	p.markReceived(ad)
	// The comparator never mutates cached resources (relevance is recomputed
	// from immutable fields), so the frame snapshot is adopted copy-on-write.
	e, overflow := p.cache.Insert(ad, rel)
	e.Shared = true
	if overflow {
		// Entries' Prob fields were refreshed each round; refresh again at
		// the current position for an exact comparison.
		pos := p.Position()
		p.cache.ForEach(func(e *ads.Entry) {
			e.Prob = Relevance(e.Ad, pos.Dist(e.Ad.Origin), now)
		})
		victim := p.cache.EvictLowest()
		if victim != nil {
			n.obs.OnEvict(p.id, victim.Ad.ID, now)
		}
	}
}
