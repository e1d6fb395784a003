package core

import (
	"cmp"
	"math"

	"instantad/internal/ads"
	"instantad/internal/fm"
	"instantad/internal/geo"
	"instantad/internal/obs"
	"instantad/internal/rng"
)

// Rules is the paper's per-ad protocol step with no driver behind it: the
// forwarding probability of Formulas 1–3, Algorithm 1's admission, the
// duplicate merge of Algorithms 1 and 3, Algorithm 5's popularity update and
// one entry's gossip step of Algorithms 2 and 4. A method takes what belongs
// to one peer — its cache, coin stream, user ID, interests, RSU flag and
// position — and the instant as arguments, so the simulator's Network and the
// live node run the same code on their own clocks, both keeping due times as
// slots of its grid. Timers, the radio, observers and delivery bookkeeping
// stay with the caller: a method returns what it evicted or expired, and the
// caller cancels and reports.
type Rules struct {
	cfg Config
	// slotW is the slot width RoundTime/RoundSlots. A slot's instant is always
	// slot·slotW, never a float sum, so due times meant to coincide are
	// bit-identical instants, which the simulator batches.
	slotW float64
	// rank scores cache entries for rankOverflow; the counters tell its verdicts.
	rank                                      scorer
	overflows, overflowDropped, overflowExact *obs.Counter
}

// NewRules validates cfg and builds its rules with the popularity and slot
// defaults filled in. Of cfg only Protocol (whether it uses Optimization
// Mechanism 1), Params, RoundTime, RoundSlots, DIS, Eviction and Popularity
// shape them.
func NewRules(cfg Config) (*Rules, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pc := &cfg.Popularity; pc.Enabled {
		pc.F, pc.L = cmp.Or(pc.F, 8), cmp.Or(pc.L, 32)
	}
	cfg.RoundSlots = cmp.Or(cfg.RoundSlots, DefaultRoundSlots)
	return &Rules{cfg: cfg, slotW: cfg.RoundTime / float64(cfg.RoundSlots), rank: newScorer(cfg),
		overflows: new(obs.Counter), overflowDropped: new(obs.Counter), overflowExact: new(obs.Counter)}, nil
}

// slotAfter returns the first slot whose instant is ≥ t. The guard loop
// absorbs the one-ULP case where float64(k)·slotW rounds below t.
func (r *Rules) slotAfter(t float64) int64 {
	k := int64(math.Ceil(t / r.slotW))
	for float64(k)*r.slotW < t {
		k++
	}
	return k
}

// slotsFor converts a relative delay into whole slots, never fewer than one:
// ceil alone maps a delay of zero or below the grid's float64 granularity to
// zero slots, which would fire a timer again before the clock moves.
func (r *Rules) slotsFor(delay float64) int64 {
	return max(int64(math.Ceil(delay/r.slotW)), 1)
}

// SlotAt returns the last slot whose instant is ≤ t: a due time at or before
// it is due for a driver polling at t.
func (r *Rules) SlotAt(t float64) int64 { return r.slotAfter(math.Nextafter(t, math.Inf(1))) - 1 }

// Phase draws a peer's round phase, a slot in [0, RoundSlots), from rnd.
func (r *Rules) Phase(rnd *rng.Stream) int64 { return int64(rnd.Intn(r.cfg.RoundSlots)) }

// FirstDue is the first slot at least one round after now: when an entry
// cached at now first steps under Optimization Mechanism 2.
func (r *Rules) FirstDue(now float64) int64 { return r.slotAfter(now + r.cfg.RoundTime) }

// NextDue is the first slot after cur ≥ slot on slot's round phase: slot +
// RoundSlots for a driver on time, as the simulator always is. A driver that
// fell further behind skips the rounds it missed instead of replaying them.
func (r *Rules) NextDue(slot, cur int64) int64 {
	rs := int64(r.cfg.RoundSlots)
	return slot + ((cur-slot)/rs+1)*rs
}

// Postpone is Algorithm 3's overhearing rule: it pushes e's next step back
// by Formula 4's interval for overlap p and angle θ (postponeInterval), in
// whole slots rounded up, and returns the slots.
func (r *Rules) Postpone(e *ads.Entry, p, theta float64) int64 {
	slots := r.slotsFor(postponeInterval(r.cfg.RoundTime, p, theta))
	e.Slot += slots
	return slots
}

// NewAd builds the ad a peer issues as id at origin and now: spec's fields,
// validated, with an empty FM sketch when the popularity mechanism is on.
func (r *Rules) NewAd(id ads.ID, origin geo.Point, now float64, spec AdSpec) (*ads.Advertisement, error) {
	ad := &ads.Advertisement{
		ID:       id,
		Origin:   origin,
		IssuedAt: now,
		R:        spec.R,
		D:        spec.D,
		Category: spec.Category,
		Keywords: spec.Keywords,
		Text:     spec.Text,
	}
	if err := ad.Validate(); err != nil {
		return nil, err
	}
	if pc := r.cfg.Popularity; pc.Enabled {
		ad.Sketch = fm.New(pc.F, pc.L, pc.SketchSeed)
	}
	return ad, nil
}

// prob is the forwarding probability of the ad with ranking key k for a peer
// at pos at now: Formula 1, or Formula 3 under Optimization Mechanism (1).
func (r *Rules) prob(k ads.Key, rsu bool, pos geo.Point, now float64) float64 {
	rt := RadiusAt(r.cfg.Params, k.R, k.D, k.Age(now))
	d := pos.Dist(k.Origin)
	if rsu {
		// Infrastructure has no battery to save: a roadside unit inside the
		// ad's current radius always relays, outside it never does. rng.Bool
		// short-circuits 0 and 1 without consuming a draw, so RSU streams stay
		// aligned with their mobile-peer counterparts.
		if d <= rt {
			return 1
		}
		return 0
	}
	if r.cfg.Protocol.usesOpt1() {
		return forwardProbOpt1Rt(r.cfg.Params, d, k.R, rt, r.cfg.DIS)
	}
	return forwardProbRt(r.cfg.Params, d, k.R, rt)
}

// Admit is Algorithm 1's insert branch for an ad c does not hold, after
// Algorithm 5's popularity update. ad must be private to the caller unless
// shared is set. A private ad takes the update at once: IssueAd broadcasts
// its own ad updated even when its full cache drops it. A shared snapshot is
// ranked by the key the update would give it (popularityKey) and, only if it
// enters, cloned and updated; a dropped one costs no copy.
// It returns the new entry, nil when ad ranked lowest and was dropped, and
// the other entry evicted to make room, if any; cancelling the victim's timer
// and reporting evictions are the caller's. The victim is chosen among the
// k cached entries and ad before ad enters, so c never holds k+1. The tail,
// evict, is Algorithm 1 as written; rankOverflow first tries to name the
// victim without the refresh, and a doomed newcomer, the common case, never
// enters.
func (r *Rules) Admit(c *ads.Cache, rnd *rng.Stream, ad *ads.Advertisement, shared bool, userID uint64, interests []string, rsu bool, pos geo.Point, now float64) (e, victim *ads.Entry) {
	key, writes := ad.Key(), false
	if r.popularityMutates(ad, interests) {
		if shared {
			key, writes = r.popularityKey(ad, userID)
		} else {
			r.applyPopularity(ad, userID, interests)
			key = ad.Key()
		}
	}
	prob, certain := 0.0, false
	if c.Len() >= c.K() {
		if r.cfg.Eviction == EvictLowestProb {
			r.overflows.Inc()
			if victim, prob, certain = r.rankOverflow(c, &key, rsu, pos, now); !certain {
				r.overflowExact.Inc() // evict decides
			} else if victim == nil {
				r.overflowDropped.Inc()
			}
		}
		if !certain {
			prob = r.prob(key, rsu, pos, now)
			victim = r.evict(c, rnd, prob, rsu, pos, now)
		}
		if victim == nil {
			return nil, nil
		}
		c.Remove(victim.Ad.ID)
	} else {
		prob = r.prob(key, rsu, pos, now)
	}
	if writes {
		ad, shared = ad.Clone(), false
		ad.Sketch.Add(userID)
		ad.R, ad.D = key.R, key.D
	}
	e, _ = c.Insert(ad, prob)
	e.Shared = shared
	return e, victim
}

// rankOverflow names from scores the entry Algorithm 1 would evict once the
// ad with key own joined the full cache c, nil for that ad whose score is s,
// and reports whether that is certain: none is NaN and the lowest is an exact
// zero — the first in cache order loses, as in Cache.EvictLowest — or
// scoreMargin (10³ × a score's error) below the runner-up. An RSU's 1/0 rule
// ties: never certain.
func (r *Rules) rankOverflow(c *ads.Cache, own *ads.Key, rsu bool, pos geo.Point, now float64) (victim *ads.Entry, s float64, certain bool) {
	lo, next := math.Inf(1), math.Inf(1) // the two lowest scores; a NaN sticks in lo
	rank := func(k *ads.Key, e *ads.Entry) {
		if s = r.rank.score(pos.Dist(k.Origin), k.R, k.D, k.Age(now)); s < lo || s != s {
			lo, next, victim = s, lo, e
		} else if s < next {
			next = s
		}
	}
	// The keys sit inline in the slots, one contiguous block: no hop to an
	// entry or its ad.
	slots := c.Slots()
	for i := range slots {
		rank(&slots[i].Key, slots[i].Entry)
	}
	rank(own, nil) // last, as the last in cache order
	return victim, s, !rsu && (lo == 0 || next > lo*(1+scoreMargin))
}

// evict applies the configured overflow policy to the full cache c and an
// arrival of probability own that would follow its entries in insertion
// order, and returns the entry to evict, nil for the arrival; it removes
// nothing. Under the paper's rule every entry's probability is first
// refreshed at pos, as Algorithm 1 says, and the lowest of the k+1 loses,
// ties to the oldest as in Cache.EvictLowest.
func (r *Rules) evict(c *ads.Cache, rnd *rng.Stream, own float64, rsu bool, pos geo.Point, now float64) *ads.Entry {
	slots := c.Slots()
	switch r.cfg.Eviction {
	case EvictOldestFirst:
		return slots[0].Entry
	case EvictRandomEntry:
		if i := rnd.Intn(len(slots) + 1); i < len(slots) { // the i-th of the k+1 in insertion order
			return slots[i].Entry
		}
		return nil
	}
	c.ForEach(func(e *ads.Entry) { e.Prob = r.prob(e.Ad.Key(), rsu, pos, now) })
	v := slots[0].Entry
	for _, s := range slots[1:] {
		if s.Entry.Prob < v.Prob {
			v = s.Entry
		}
	}
	if own < v.Prob {
		return nil
	}
	return v
}

// Merge folds a duplicate message copy into the cached entry: FM sketches
// are OR-merged and enlarged propagation parameters adopted, the
// duplicate-insensitive semantics Section III.E requires (see DESIGN.md).
// When the duplicate would change nothing — no larger R or D and no sketch
// bit the cached copy lacks, the common case with or without the popularity
// mechanism — the shared snapshot is kept as-is; otherwise the entry's ad is
// written through Entry.Own, its R and D through Cache.Enlarge, which keeps
// the entry's ranking key in c current.
func (r *Rules) Merge(c *ads.Cache, e *ads.Entry, in *ads.Advertisement) {
	if in == e.Ad {
		return // the cached snapshot itself came back around
	}
	mergeSketch := e.Ad.Sketch != nil && in.Sketch != nil && !e.Ad.Sketch.Covers(in.Sketch)
	if !mergeSketch && in.R <= e.Ad.R && in.D <= e.Ad.D {
		return
	}
	ad := e.Own()
	if mergeSketch {
		// Seed/shape mismatches cannot happen inside one deployment; ignore
		// the error to keep the hot path tight.
		_ = ad.Sketch.Merge(in.Sketch)
	}
	if in.R > ad.R || in.D > ad.D {
		c.Enlarge(e, in.R, in.D)
	}
}

// Step is one entry's step of Algorithm 2's round and Algorithm 4's time
// handler: an expired entry leaves c and is reported dead; a live one has
// P(d,t) refreshed at pos, and send is a coin flipped on rnd with that
// probability. The coin is flipped whatever the caller then does, so a peer's
// stream consumption does not depend on its radio being on.
func (r *Rules) Step(c *ads.Cache, rnd *rng.Stream, e *ads.Entry, rsu bool, pos geo.Point, now float64) (live, send bool) {
	if e.Ad.Expired(now) {
		c.Remove(e.Ad.ID)
		return false, false
	}
	e.Prob = r.prob(e.Ad.Key(), rsu, pos, now)
	return true, rnd.Bool(e.Prob)
}
