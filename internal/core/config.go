package core

import (
	"fmt"
)

// Protocol selects which dissemination scheme a Network runs.
type Protocol int

const (
	// Flooding is the Restricted Flooding baseline (Section III.B): the
	// issuer re-broadcasts every round with the current radius embedded;
	// receivers inside the radius relay once per cycle.
	Flooding Protocol = iota
	// Gossip is pure Opportunistic Gossiping (Section III.C): every peer
	// broadcasts each cached ad with probability P every round.
	Gossip
	// GossipOpt1 adds Optimization Mechanism (1): the annular
	// velocity-constrained probability function (Formula 3).
	GossipOpt1
	// GossipOpt2 adds Optimization Mechanism (2): per-entry gossip timers
	// postponed on overhearing (Formula 4).
	GossipOpt2
	// GossipOpt combines both mechanisms — the paper's "Optimized Gossiping".
	GossipOpt
	// RelevanceExchange is the Opportunistic Resource Exchange comparator
	// from the paper's related work: relevance-ranked resources exchanged at
	// peer encounters instead of gossiped every round.
	RelevanceExchange
	// AsyncGossip is the mobile telephone model from the Newport line of
	// related work: no shared round clock; each peer wakes on its own
	// exponential timer and holds at most Config.AsyncK pairwise exchanges at
	// a time (propose / accept-or-busy / transfer), forwarding each cached ad
	// across an established connection with the paper's P(d,t) probability.
	AsyncGossip
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Flooding:
		return "Flooding"
	case Gossip:
		return "Gossiping"
	case GossipOpt1:
		return "Optimized Gossiping-1"
	case GossipOpt2:
		return "Optimized Gossiping-2"
	case GossipOpt:
		return "Optimized Gossiping"
	case RelevanceExchange:
		return "Relevance Exchange"
	case AsyncGossip:
		return "Async Gossiping"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// MarshalText writes the protocol's name, so it travels by name in JSON and
// flags.
func (p Protocol) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a name written by MarshalText.
func (p *Protocol) UnmarshalText(b []byte) (err error) {
	*p, err = ParseProtocol(string(b))
	return err
}

// Protocols lists the paper's protocols, in the order its figures plot them.
// The related-work comparator is excluded; see AllProtocols.
func Protocols() []Protocol {
	return []Protocol{Flooding, Gossip, GossipOpt2, GossipOpt1, GossipOpt}
}

// AllProtocols lists every implemented protocol: the paper's five, the
// related-work Relevance Exchange comparator, and the asynchronous pairwise
// family.
func AllProtocols() []Protocol {
	return append(Protocols(), RelevanceExchange, AsyncGossip)
}

// ParseProtocol converts a name (as produced by String, case-sensitive) back
// to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range AllProtocols() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown protocol %q", s)
}

// usesOpt1 reports whether the protocol applies the annular probability.
func (p Protocol) usesOpt1() bool { return p == GossipOpt1 || p == GossipOpt }

// usesOpt2 reports whether the protocol uses per-entry postponable timers.
func (p Protocol) usesOpt2() bool { return p == GossipOpt2 || p == GossipOpt }

// isGossip reports whether the protocol is any of the paper's gossiping
// variants (round-based probabilistic broadcast forwarding). The async
// family shares the P(d,t) forwarding rule but not the round structure, so
// it is deliberately excluded — use isAsync for it.
func (p Protocol) isGossip() bool {
	switch p {
	case Gossip, GossipOpt1, GossipOpt2, GossipOpt:
		return true
	}
	return false
}

// isAsync reports whether the protocol is the round-free pairwise family.
func (p Protocol) isAsync() bool { return p == AsyncGossip }

// PopularityConfig parameterizes the interest-ranking mechanism
// (Section III.E). The zero value disables it. The struct tags name the
// fields in a scenario file's "popularity" object, whose presence is what
// sets Enabled (see experiment.Scenario).
type PopularityConfig struct {
	// Enabled turns the mechanism on.
	Enabled bool `json:"-"`
	// F is the number of independent FM sketches per ad; L is each sketch's
	// length in bits. The paper suggests small fixed sizes (we default to
	// 8×32 when zero).
	F int `json:"f,omitempty" doc:"FM sketches per ad (0 = 8)"`
	L int `json:"l,omitempty" doc:"bits per FM sketch (0 = 32)"`
	// SketchSeed selects the hash family shared by all peers.
	SketchSeed uint64 `json:"sketch_seed,omitempty" doc:"hash family shared by all peers"`
	// RInc and DInc are the base enlargement increments of Formula 7: on a
	// rank increase the ad grows by RInc/log₂(rank+1) meters and
	// DInc/log₂(rank+1) seconds.
	RInc float64 `json:"r_inc,omitempty" unit:"m" doc:"radius increment per rank step (Formula 7)"`
	DInc float64 `json:"d_inc,omitempty" unit:"s" doc:"duration increment per rank step (Formula 7)"`
	// RMax and DMax cap the enlarged radius and duration ("these two
	// parameters can not be increased infinitely"). Zero means no cap.
	RMax float64 `json:"r_max,omitempty" unit:"m" doc:"cap on the enlarged radius (0 = no cap)"`
	DMax float64 `json:"d_max,omitempty" unit:"s" doc:"cap on the enlarged duration (0 = no cap)"`
}

// validate accepts F = 0 and L = 0, which NewRules fills in.
func (c PopularityConfig) validate() error {
	if !c.Enabled {
		return nil
	}
	if c.F < 0 || c.L < 0 || c.L > 64 {
		return fmt.Errorf("core: popularity sketch shape %d×%d invalid", c.F, c.L)
	}
	if !(finiteNonNeg(c.RInc) && finiteNonNeg(c.DInc) && finiteNonNeg(c.RMax) && finiteNonNeg(c.DMax)) {
		return fmt.Errorf("core: popularity increment or cap not finite and non-negative")
	}
	return nil
}

// DefaultRoundSlots is the round-phase grid used when Config.RoundSlots is
// zero: 64 slots per round (≈0.47 s at the paper's Δt = 30 s).
const DefaultRoundSlots = 64

// EvictionPolicy selects the cache-overflow victim rule.
type EvictionPolicy int

const (
	// EvictLowestProb drops the ad with the smallest refreshed forwarding
	// probability — the paper's Algorithm 1 (far-away and old ads go first).
	EvictLowestProb EvictionPolicy = iota
	// EvictOldestFirst drops the earliest-cached ad (FIFO) — ablation.
	EvictOldestFirst
	// EvictRandomEntry drops a uniformly random ad — ablation.
	EvictRandomEntry
)

// String returns the policy's flag-friendly name, round-tripping with
// ParseEviction.
func (e EvictionPolicy) String() string {
	switch e {
	case EvictLowestProb:
		return "lowest-prob"
	case EvictOldestFirst:
		return "oldest-first"
	case EvictRandomEntry:
		return "random"
	}
	return fmt.Sprintf("EvictionPolicy(%d)", int(e))
}

// MarshalText writes the policy's name, so it travels by name in JSON and
// flags.
func (e EvictionPolicy) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText parses a name written by MarshalText.
func (e *EvictionPolicy) UnmarshalText(b []byte) (err error) {
	*e, err = ParseEviction(string(b))
	return err
}

// EvictionPolicies lists every cache-overflow rule, the paper's default
// first.
func EvictionPolicies() []EvictionPolicy {
	return []EvictionPolicy{EvictLowestProb, EvictOldestFirst, EvictRandomEntry}
}

// ParseEviction converts a policy name (as produced by String) back to an
// EvictionPolicy.
func ParseEviction(s string) (EvictionPolicy, error) {
	for _, e := range EvictionPolicies() {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("core: unknown eviction policy %q (want lowest-prob | oldest-first | random)", s)
}

// Config parameterizes a Network.
type Config struct {
	// Protocol selects the dissemination scheme.
	Protocol Protocol
	// Params are the probability/decay tuning parameters.
	Params ProbParams
	// RoundTime is the gossiping round Δt in seconds (also the flooding
	// broadcast cycle).
	RoundTime float64
	// DIS is the annular-region width of Optimization Mechanism (1), meters.
	// The physical lower bound is V_max·Δt; the paper extends it (to R/4 in
	// the experiments) to keep delivery high in sparse networks.
	DIS float64
	// RoundSlots quantizes each round into this many equal phase slots:
	// round phases and Optimized Gossiping-2 due times, in the simulator and
	// on a live node, are slots of the grid k·RoundTime/RoundSlots (Rules).
	// Same-slot timers share one bit-identical simulation instant and are
	// dispatched as one batch (sim.ScheduleSlot), so the slot count fixes
	// which peers share an instant and every fingerprint depends on it. Zero
	// selects DefaultRoundSlots, whose phase granularity is well under the
	// channel's jitter.
	RoundSlots int
	// CacheK is the Store & Forward cache capacity per peer.
	CacheK int
	// Eviction selects the overflow victim rule (default: the paper's
	// lowest-probability rule).
	Eviction EvictionPolicy
	// Popularity configures interest ranking; zero value disables it.
	Popularity PopularityConfig
	// RSUPeers lists peer indices that are fixed roadside units: always-on
	// infrastructure that relays deterministically within an ad's radius and
	// syncs caches over a wired backhaul each round (see rsu.go). Indices are
	// validated against the peer count in New, not here.
	RSUPeers []int
	// AsyncK bounds the number of simultaneous pairwise exchanges a peer
	// holds under AsyncGossip (pending proposals included). Zero selects 1,
	// the classic mobile-telephone bound. Ignored by the round-based
	// protocols.
	AsyncK int
	// AsyncMeanDelay is the mean of the exponential inter-scan delay under
	// AsyncGossip: after each wake-up a peer draws its next from
	// Exp(1/AsyncMeanDelay). Zero selects RoundTime, making the average
	// contact-attempt rate comparable to one broadcast round.
	AsyncMeanDelay float64
	// AsyncTimeout bounds how long an unanswered proposal (or an accepted
	// exchange whose transfer never arrives) reserves a connection slot
	// before it is reclaimed. Zero selects RoundTime.
	AsyncTimeout float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Protocol < Flooding || c.Protocol > AsyncGossip {
		return fmt.Errorf("core: unknown protocol %d", c.Protocol)
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if !(c.RoundTime > 0 && finiteNonNeg(c.RoundTime)) {
		return fmt.Errorf("core: round time %v not positive and finite", c.RoundTime)
	}
	if c.RoundSlots < 0 {
		return fmt.Errorf("core: negative round slots %d", c.RoundSlots)
	}
	if c.Protocol.usesOpt1() && !(c.DIS > 0) {
		return fmt.Errorf("core: %v requires positive DIS", c.Protocol)
	}
	if !finiteNonNeg(c.DIS) {
		return fmt.Errorf("core: DIS %v not finite and non-negative", c.DIS)
	}
	if c.CacheK < 1 {
		return fmt.Errorf("core: cache capacity %d < 1", c.CacheK)
	}
	if c.Eviction < EvictLowestProb || c.Eviction > EvictRandomEntry {
		return fmt.Errorf("core: unknown eviction policy %d", c.Eviction)
	}
	if c.AsyncK < 0 {
		return fmt.Errorf("core: negative async exchange bound %d", c.AsyncK)
	}
	if !finiteNonNeg(c.AsyncMeanDelay) {
		return fmt.Errorf("core: async mean delay %v not finite and non-negative", c.AsyncMeanDelay)
	}
	if !finiteNonNeg(c.AsyncTimeout) {
		return fmt.Errorf("core: async timeout %v not finite and non-negative", c.AsyncTimeout)
	}
	return c.Popularity.validate()
}
