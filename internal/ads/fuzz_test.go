package ads

import (
	"bytes"
	"reflect"
	"testing"

	"instantad/internal/geo"
)

// FuzzDecode hardens the wire decoder against arbitrary input: it must
// never panic, and anything it accepts must re-encode to the same bytes
// (canonical encoding).
func FuzzDecode(f *testing.F) {
	seed := sampleAd()
	data, _ := seed.Encode()
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte{wireMagic})
	f.Add([]byte{wireMagic, wireVersion, 0, 0, 0})
	f.Add(data[:len(data)/2])

	f.Fuzz(func(t *testing.T, in []byte) {
		ad, err := Decode(in)
		if err != nil {
			return
		}
		out, err := ad.Encode()
		if err != nil {
			t.Fatalf("decoded ad does not re-encode: %v", err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("non-canonical encoding:\n in  %x\n out %x", in, out)
		}
	})
}

// FuzzEncodeDecodeRoundtrip drives the encoder with arbitrary field values:
// every ad the encoder accepts must round-trip exactly.
func FuzzEncodeDecodeRoundtrip(f *testing.F) {
	f.Add(uint32(1), uint32(2), 100.0, 200.0, 5.0, 500.0, 180.0, "petrol", "kw", "text")
	f.Add(uint32(0), uint32(0), 0.0, 0.0, 0.0, 1.0, 1.0, "", "", "")
	f.Fuzz(func(t *testing.T, issuer, seq uint32, x, y, issued, r, d float64, cat, kw, text string) {
		a := &Advertisement{
			ID:       ID{Issuer: issuer, Seq: seq},
			Origin:   geo.Point{X: x, Y: y},
			IssuedAt: issued,
			R:        r,
			D:        d,
			Category: cat,
			Text:     text,
		}
		if kw != "" {
			a.Keywords = []string{kw}
		}
		data, err := a.Encode()
		if err != nil {
			return // invalid per Validate — fine
		}
		if len(data) != a.WireSize() {
			t.Fatalf("WireSize %d ≠ encoded %d", a.WireSize(), len(data))
		}
		b, err := Decode(data)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("roundtrip mismatch:\n in  %+v\n out %+v", a, b)
		}
	})
}
