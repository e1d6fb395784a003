// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic subsystem of the simulator (mobility per node, gossip coin
// flips per peer, channel jitter, workload generation) draws from its own
// stream derived from the scenario seed and a stable label. This makes whole
// simulation runs pure functions of (scenario, seed): changing the order in
// which subsystems consume randomness — or adding a new consumer — does not
// perturb the draws seen by unrelated subsystems, which keeps experiments
// reproducible as the code evolves.
//
// The generator is PCG-XSH-RR 64/32 state advanced as a 64-bit LCG, the same
// family used by math/rand/v2; it is small, fast, and passes practical
// statistical tests. This package is not for cryptographic use.
package rng

import (
	"hash/fnv"
	"math"
)

const (
	pcgMultiplier = 6364136223846793005
	pcgIncrement  = 1442695040888963407
)

// Stream is a deterministic pseudo-random stream. The zero value is not
// usable; construct streams with New or Stream.Split.
type Stream struct {
	state uint64
	inc   uint64
	id    uint64 // immutable identity: mixes the seed and the split path
}

// splitmix64 is a strong 64-bit finalizer used to derive identities and
// child seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New returns a stream seeded from seed. Two streams with different seeds
// produce unrelated sequences.
func New(seed uint64) *Stream {
	s := &Stream{inc: pcgIncrement, id: splitmix64(seed)}
	s.state = splitmix64(s.id) + pcgIncrement
	s.Uint64() // scramble the seed through one step
	return s
}

// deriveChild builds a child stream from the parent's immutable identity and
// a label hash. It does not touch the parent's mutable state, so the set of
// child streams is stable no matter how many values the parent has produced,
// while still depending on the parent's seed and split path.
func (s *Stream) deriveChild(h uint64) *Stream {
	mixed := splitmix64(h ^ s.id)
	child := &Stream{
		inc: (splitmix64(mixed^pcgMultiplier) << 1) | 1,
		id:  splitmix64(mixed ^ h),
	}
	child.state = mixed + child.inc
	child.Uint64()
	return child
}

// Split derives an independent child stream from the parent seed and a stable
// label. Splitting does not consume randomness from the parent.
func (s *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return s.deriveChild(h.Sum64())
}

// SplitIndex derives an independent child stream identified by an integer,
// e.g. a per-node stream.
func (s *Stream) SplitIndex(label string, i int) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var buf [8]byte
	v := uint64(i)
	for k := 0; k < 8; k++ {
		buf[k] = byte(v >> (8 * k))
	}
	_, _ = h.Write(buf[:])
	return s.deriveChild(h.Sum64())
}

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Stream) Uint32() uint32 {
	old := s.state
	s.state = old*pcgMultiplier + (s.inc | 1)
	// PCG output permutation: XSH-RR.
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 {
	return uint64(s.Uint32())<<32 | uint64(s.Uint32())
}

// Float64 returns a uniformly distributed value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n)) // modulo bias is negligible for n ≪ 2⁶⁴
}

// Range returns a uniformly distributed value in [lo, hi). If hi <= lo it
// returns lo.
func (s *Stream) Range(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + s.Float64()*(hi-lo)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp returns an exponentially distributed value with the given rate λ > 0.
func (s *Stream) Exp(rate float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / rate
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a Zipf distribution over {0, …, n−1} with exponent
// skew ≥ 0 (skew 0 is uniform) by inverse-transform sampling over the
// normalized weights 1/(k+1)^skew. It is intended for modest n (interest
// categories), not heavy-duty sampling.
func (s *Stream) Zipf(n int, skew float64) int {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if skew == 0 {
		return s.Intn(n)
	}
	var total float64
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -skew)
	}
	u := s.Float64() * total
	var cum float64
	for k := 0; k < n; k++ {
		cum += math.Pow(float64(k+1), -skew)
		if u < cum {
			return k
		}
	}
	return n - 1
}
