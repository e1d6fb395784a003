// Package ads defines the advertisement message that the paper's protocols
// disseminate, its binary wire encoding (used for bandwidth accounting), and
// the Store & Forward cache each peer maintains.
//
// Per the paper (Section III), an advertisement embeds its issuing location
// and time (from which every peer derives the distance d and age t used by
// the forwarding-probability function), the propagation parameters R and D
// (which popularity may enlarge on the fly), a category and text payload,
// and — when interest ranking is enabled — a set of FM sketches recording
// the distinct users the ad has matched.
package ads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"instantad/internal/fm"
	"instantad/internal/geo"
)

// ID identifies an advertisement network-wide. The paper identifies ads by
// "the issuer's MAC address plus ID"; Issuer plays the role of the MAC
// address and Seq of the per-issuer counter.
type ID struct {
	Issuer uint32
	Seq    uint32
}

// String implements fmt.Stringer.
func (id ID) String() string { return fmt.Sprintf("ad-%d/%d", id.Issuer, id.Seq) }

// Advertisement is one instant ad. Fields R and D start at the issuer's
// chosen values and may grow when the popularity mechanism fires; Origin and
// IssuedAt never change.
type Advertisement struct {
	ID       ID
	Origin   geo.Point  // issuing location
	IssuedAt float64    // seconds since simulation start
	R        float64    // current advertising radius, meters
	D        float64    // current advertising duration, seconds
	Category string     // ad type, e.g. "petrol", "grocery"
	Keywords []string   // extra interest keywords beyond the category
	Text     string     // human-readable payload
	Sketch   *fm.Sketch // popularity sketches; nil when ranking is disabled
}

// Age returns how long the ad has existed at time now, ≥ 0.
func (a *Advertisement) Age(now float64) float64 { return age(now, a.IssuedAt) }

// age is now − issuedAt, floored at 0.
func age(now, issuedAt float64) float64 {
	a := now - issuedAt
	if a < 0 {
		return 0
	}
	return a
}

// Expired reports whether the ad's age exceeds its (possibly enlarged)
// duration D at time now.
func (a *Advertisement) Expired(now float64) bool {
	return a.Age(now) > a.D
}

// Clone returns a deep copy; the sketch, if any, is copied too. Protocols
// clone on receive so that in-simulation "message copies" at different peers
// evolve independently, exactly as physical copies would.
func (a *Advertisement) Clone() *Advertisement {
	c := *a
	if a.Keywords != nil {
		c.Keywords = append([]string(nil), a.Keywords...)
	}
	if a.Sketch != nil {
		c.Sketch = a.Sketch.Clone()
	}
	return &c
}

// InterestSet returns keywords as an interest set: sorted, without
// duplicates, in a fresh slice (nil for none).
func InterestSet(keywords []string) []string {
	if len(keywords) == 0 {
		return nil
	}
	set := slices.Clone(keywords)
	slices.Sort(set)
	return slices.Compact(set)
}

// MatchesAny reports whether the ad's category or any of its keywords is in
// the given interest set — the paper's Match(ad, interest) predicate with
// multi-keyword ads. A peer has a handful of interests, so a scan beats a
// search.
func (a *Advertisement) MatchesAny(interests []string) bool {
	if slices.Contains(interests, a.Category) {
		return true
	}
	for _, k := range a.Keywords {
		if slices.Contains(interests, k) {
			return true
		}
	}
	return false
}

// Validate checks structural invariants before encoding or injecting an ad.
func (a *Advertisement) Validate() error {
	if !(a.R > 0 && a.R <= math.MaxFloat64) {
		return fmt.Errorf("ads: radius %v not finite and positive", a.R)
	}
	if !(a.D > 0 && a.D <= math.MaxFloat64) {
		return fmt.Errorf("ads: duration %v not finite and positive", a.D)
	}
	if !(a.IssuedAt >= 0 && a.IssuedAt <= math.MaxFloat64) {
		return fmt.Errorf("ads: issue time %v not finite and non-negative", a.IssuedAt)
	}
	if !(math.Abs(a.Origin.X) <= math.MaxFloat64 && math.Abs(a.Origin.Y) <= math.MaxFloat64) {
		return fmt.Errorf("ads: origin %v not finite", a.Origin)
	}
	if len(a.Category) > 255 {
		return errors.New("ads: category longer than 255 bytes")
	}
	if len(a.Keywords) > 16 {
		return errors.New("ads: more than 16 keywords")
	}
	for _, k := range a.Keywords {
		if len(k) == 0 || len(k) > 64 {
			return fmt.Errorf("ads: keyword %q length outside [1,64]", k)
		}
	}
	if len(a.Text) > 64*1024 {
		return errors.New("ads: text longer than 64 KiB")
	}
	return nil
}

const (
	wireMagic   = 0xAD
	wireVersion = 1
)

// Encode serializes the ad to its wire form. The encoding is what a real
// deployment would broadcast, so its length is used for airtime and traffic
// accounting.
func (a *Advertisement) Encode() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	buf, err := a.appendWire(make([]byte, 0, a.WireSize()))
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendEncode appends the ad's wire form, byte for byte what Encode
// returns, to buf. A caller that sizes buf from WireSize encodes with no
// allocation. On error buf comes back unchanged.
func (a *Advertisement) AppendEncode(buf []byte) ([]byte, error) {
	if err := a.Validate(); err != nil {
		return buf, err
	}
	out, err := a.appendWire(buf)
	if err != nil {
		return buf, err
	}
	return out, nil
}

// appendWire appends the encoding of a validated ad.
func (a *Advertisement) appendWire(buf []byte) ([]byte, error) {
	buf = append(buf, wireMagic, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, a.ID.Issuer)
	buf = binary.LittleEndian.AppendUint32(buf, a.ID.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Origin.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Origin.Y))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.IssuedAt))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.R))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.D))
	buf = binary.AppendUvarint(buf, uint64(len(a.Category)))
	buf = append(buf, a.Category...)
	buf = binary.AppendUvarint(buf, uint64(len(a.Keywords)))
	for _, k := range a.Keywords {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(a.Text)))
	buf = append(buf, a.Text...)
	if a.Sketch == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(a.Sketch.WireSize()))
	return a.Sketch.AppendBinary(buf)
}

// WireSize returns the encoded length in bytes without allocating the full
// encoding.
func (a *Advertisement) WireSize() int {
	n := 2 + 4 + 4 + 8*5
	n += uvarintLen(uint64(len(a.Category))) + len(a.Category)
	n += uvarintLen(uint64(len(a.Keywords)))
	for _, k := range a.Keywords {
		n += uvarintLen(uint64(len(k))) + len(k)
	}
	n += uvarintLen(uint64(len(a.Text))) + len(a.Text)
	n++ // sketch flag
	if a.Sketch != nil {
		sz := a.Sketch.WireSize()
		n += uvarintLen(uint64(sz)) + sz
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// The decoder's fixed errors.
var (
	errBadMagic      = errors.New("ads: bad magic")
	errTruncated     = errors.New("ads: truncated message")
	errTruncString   = errors.New("ads: truncated string")
	errKeywordCount  = errors.New("ads: bad keyword count")
	errTruncSketch   = errors.New("ads: truncated sketch")
	errTrailingBytes = errors.New("ads: trailing garbage")
)

// fixedLen is the length of an encoding's fixed prefix: magic, version, ID,
// origin, issue time, R and D.
const fixedLen = 2 + 4 + 4 + 8*5

// Decode parses an ad from its wire form.
func Decode(data []byte) (*Advertisement, error) {
	a := &Advertisement{}
	if err := DecodeInto(a, data); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeInto parses an ad from its wire form into a, overwriting every
// field: a ends up equal to what Decode returns, and the error is Decode's.
// What a holds is reused where it can be, so decoding over a copy of the
// same ad allocates nothing: a string field (Category, Text, each keyword)
// whose bytes equal a's current value keeps that value, the keyword list
// is written into a's slice, and a sketch into a.Sketch, which must then be
// a's own. An ad without keywords or a sketch decodes with nil ones, as
// Decode gives them. On error a holds a partial decode.
func DecodeInto(a *Advertisement, data []byte) error {
	if len(data) < 2 || data[0] != wireMagic {
		return errBadMagic
	}
	if data[1] != wireVersion {
		return fmt.Errorf("ads: unsupported version %d", data[1])
	}
	if len(data) < fixedLen {
		return errTruncated
	}
	a.ID = peekID(data)
	p := data[10:]
	a.Origin.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
	a.Origin.Y = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
	a.IssuedAt = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
	a.R = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
	a.D = math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
	p = p[40:]
	var err error
	if a.Category, p, err = readString(p, a.Category); err != nil {
		return err
	}
	nk, n := binary.Uvarint(p)
	if n <= 0 || nk > 16 {
		return errKeywordCount
	}
	p = p[n:]
	old := a.Keywords
	if nk == 0 {
		a.Keywords = nil
	} else {
		a.Keywords = old[:0]
	}
	for i := range int(nk) {
		var k string
		if i < len(old) {
			k = old[i] // read before the append below overwrites it
		}
		if k, p, err = readString(p, k); err != nil {
			return err
		}
		a.Keywords = append(a.Keywords, k)
	}
	if a.Text, p, err = readString(p, a.Text); err != nil {
		return err
	}
	if len(p) < 1 {
		return errTruncated
	}
	hasSketch := p[0]
	p = p[1:]
	switch hasSketch {
	case 0:
		a.Sketch = nil
	case 1:
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return errTruncSketch
		}
		if a.Sketch == nil {
			a.Sketch = &fm.Sketch{}
		}
		if err := a.Sketch.UnmarshalBinary(p[n : n+int(l)]); err != nil {
			return err
		}
		p = p[n+int(l):]
	default:
		return fmt.Errorf("ads: bad sketch flag %d", hasSketch)
	}
	if len(p) != 0 {
		return errTrailingBytes
	}
	return a.Validate()
}

// readString reads one length-prefixed string off p, returning keep instead
// of a new string when the bytes equal it.
func readString(p []byte, keep string) (string, []byte, error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < l {
		return "", p, errTruncString
	}
	if b := p[n : n+int(l)]; string(b) != keep {
		keep = string(b)
	}
	return keep, p[n+int(l):], nil
}

// PeekID reads the ID of an encoded ad without decoding the rest; ok is
// false when data cannot be an ad's encoding. A decoder that keeps a copy
// of some ads looks the ID up first, to decode over the copy it holds.
func PeekID(data []byte) (id ID, ok bool) {
	if len(data) < fixedLen || data[0] != wireMagic || data[1] != wireVersion {
		return ID{}, false
	}
	return peekID(data), true
}

// peekID reads the ID of an encoding at least fixedLen long.
func peekID(data []byte) ID {
	return ID{Issuer: binary.LittleEndian.Uint32(data[2:]), Seq: binary.LittleEndian.Uint32(data[6:])}
}
