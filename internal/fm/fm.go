// Package fm implements Flajolet–Martin probabilistic counting sketches
// ("FM Sketches"), the duplicate-insensitive distinct-count structure the
// paper piggy-backs on advertisement messages to estimate how many distinct
// users an advertisement has matched (Section III.E, Formula 6).
//
// A single sketch is an L-bit bitmap. Adding an element hashes it to a
// geometrically distributed bit position (bit j with probability 2^-(j+1))
// and sets that bit. The position of the lowest zero bit estimates log2 of
// the number of distinct elements added. Averaging the lowest-zero-bit
// positions of F independent sketches and scaling by 1/φ (φ ≈ 0.77351)
// yields the classic FM estimate with standard error ≈ 0.78/√F.
//
// Sketches are merged with bitwise OR, which makes the estimate insensitive
// to duplicates and to how updates were partitioned across message copies —
// exactly the property the advertising protocol needs when the same ad
// travels along many paths.
package fm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Phi is the Flajolet–Martin correction constant φ.
const Phi = 0.77351

// MaxL is the largest supported sketch length in bits. A 64-bit word per
// sketch keeps the structure compact on the wire (the paper stresses fixed,
// small message overhead).
const MaxL = 64

// Sketch is a multi-sketch: F independent FM bitmaps of L bits each. The
// total wire size is F×L bits plus a 2-byte header. The zero value is not
// usable; construct with New.
type Sketch struct {
	f, l int
	bm   []uint64 // one word per sketch; bits ≥ l are always zero
	seed uint64   // distinguishes hash families across sketch instances
}

// New returns an empty multi-sketch with f independent bitmaps of l bits
// each. It panics if f < 1 or l is outside (0, MaxL]. The seed selects the
// hash family; two sketches must share a seed to be merged.
func New(f, l int, seed uint64) *Sketch {
	if f < 1 {
		panic(fmt.Sprintf("fm: need at least one sketch, got %d", f))
	}
	if l < 1 || l > MaxL {
		panic(fmt.Sprintf("fm: sketch length %d outside (0,%d]", l, MaxL))
	}
	return &Sketch{f: f, l: l, bm: make([]uint64, f), seed: seed}
}

// splitmix64 is a strong 64-bit finalizer used to derive per-sketch hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bitFor returns the geometrically distributed bit position in [0, l) that
// element id maps to in sketch i. Position j is chosen with probability
// 2^-(j+1); the tail collapses into the last bit.
func (s *Sketch) bitFor(i int, id uint64) int {
	h := splitmix64(id ^ splitmix64(s.seed^uint64(i)*0x9e3779b97f4a7c15))
	j := bits.TrailingZeros64(h) // geometric with p = 1/2
	if j >= s.l {
		j = s.l - 1
	}
	return j
}

// Add records element id. Adding the same id any number of times leaves the
// sketch in the same state as adding it once. It reports whether the sketch
// changed, which the advertising protocol uses to detect "my contribution is
// already reflected" (Algorithm 5's rank-before vs rank-after check is the
// coarse version of this).
func (s *Sketch) Add(id uint64) bool {
	changed := false
	for i := 0; i < s.f; i++ {
		bit := uint64(1) << s.bitFor(i, id)
		if s.bm[i]&bit == 0 {
			s.bm[i] |= bit
			changed = true
		}
	}
	return changed
}

// minZero returns Min(FM_i) of a bitmap w of the sketch: the position of its
// lowest zero bit, or L when every bit is set.
func (s *Sketch) minZero(w uint64) int { return min(bits.TrailingZeros64(^w), s.l) }

// Estimate returns the approximate number of distinct elements added
// (Formula 6): (1/φ)·2^(Σ Min(FM_i)/F). An empty sketch estimates 0.
func (s *Sketch) Estimate() float64 {
	est, _ := s.estimate(0, false)
	return est
}

// estimate is Estimate of the sketch as it is, or, when with is set, as it
// would be once id were added; changed reports whether adding id would set
// a bit. It writes nothing.
func (s *Sketch) estimate(id uint64, with bool) (est float64, changed bool) {
	sum := 0
	empty := true
	for i := 0; i < s.f; i++ {
		w := s.bm[i]
		if with {
			bit := uint64(1) << s.bitFor(i, id)
			changed = changed || w&bit == 0
			w |= bit
		}
		if w != 0 {
			empty = false
		}
		sum += s.minZero(w)
	}
	if empty {
		return 0, changed
	}
	return math.Exp2(float64(sum)/float64(s.f)) / Phi, changed
}

// Rank returns the estimate rounded to the nearest non-negative integer,
// which is how the protocol consumes it.
func (s *Sketch) Rank() int {
	return int(math.Round(s.Estimate()))
}

// RankWith returns, without writing, the rank the sketch would have once id
// were added, and whether Add(id) would change the sketch at all.
func (s *Sketch) RankWith(id uint64) (rank int, changed bool) {
	est, changed := s.estimate(id, true)
	return int(math.Round(est)), changed
}

// Merge ORs other into s. Both sketches must have identical shape and seed;
// Merge returns an error otherwise. After merging, s estimates the size of
// the union of the two element sets.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return errors.New("fm: merge with nil sketch")
	}
	if s.f != other.f || s.l != other.l || s.seed != other.seed {
		return fmt.Errorf("fm: incompatible sketches (%d×%d seed %d vs %d×%d seed %d)",
			s.f, s.l, s.seed, other.f, other.l, other.seed)
	}
	for i := range s.bm {
		s.bm[i] |= other.bm[i]
	}
	return nil
}

// Covers reports whether merging other into s would leave s unchanged: same
// shape and seed, and every bit of other already set in s. It is false for a
// nil or incompatible sketch (which Merge rejects).
func (s *Sketch) Covers(other *Sketch) bool {
	if other == nil || s.f != other.f || s.l != other.l || s.seed != other.seed {
		return false
	}
	for i, w := range other.bm {
		if w&^s.bm[i] != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Sketch) Clone() *Sketch {
	c := New(s.f, s.l, s.seed)
	copy(c.bm, s.bm)
	return c
}

// WireSize returns the serialized size in bytes: 2 header bytes (F, L), an
// 8-byte seed, then F little-endian words of ⌈L/8⌉ bytes.
func (s *Sketch) WireSize() int {
	return 2 + 8 + s.f*((s.l+7)/8)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.WireSize()))
}

// AppendBinary appends the serialized sketch, as MarshalBinary returns it, to
// out.
func (s *Sketch) AppendBinary(out []byte) ([]byte, error) {
	wordLen := (s.l + 7) / 8
	out = append(out, byte(s.f), byte(s.l))
	out = binary.LittleEndian.AppendUint64(out, s.seed)
	var buf [8]byte
	for i := 0; i < s.f; i++ {
		binary.LittleEndian.PutUint64(buf[:], s.bm[i])
		out = append(out, buf[:wordLen]...)
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It decodes into
// the bitmap s already holds when that has room.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 10 {
		return errors.New("fm: sketch data too short")
	}
	f, l := int(data[0]), int(data[1])
	if f < 1 || l < 1 || l > MaxL {
		return fmt.Errorf("fm: invalid sketch header f=%d l=%d", f, l)
	}
	seed := binary.LittleEndian.Uint64(data[2:10])
	wordLen := (l + 7) / 8
	want := 2 + 8 + f*wordLen
	if len(data) != want {
		return fmt.Errorf("fm: sketch data length %d, want %d", len(data), want)
	}
	s.f, s.l, s.seed = f, l, seed
	if cap(s.bm) >= f {
		s.bm = s.bm[:f]
	} else {
		s.bm = make([]uint64, f)
	}
	var buf [8]byte
	for i := 0; i < f; i++ {
		clear(buf[:])
		copy(buf[:], data[10+i*wordLen:10+(i+1)*wordLen])
		s.bm[i] = binary.LittleEndian.Uint64(buf[:])
	}
	return nil
}
