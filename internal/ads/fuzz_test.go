package ads

import (
	"bytes"
	"reflect"
	"testing"

	"instantad/internal/fm"
	"instantad/internal/geo"
)

// dirtyAd is a decode target that holds all a decoder could reuse: strings,
// keywords and a sketch, each unlike what the fuzz seeds carry.
func dirtyAd() *Advertisement {
	a := sampleAd()
	a.Category, a.Text = "grocery", "stale text"
	a.Keywords = []string{"a", "bb", "ccc", "dddd"}
	a.Sketch = fm.New(3, 16, 99)
	a.Sketch.Add(5)
	return a
}

// FuzzDecode hardens the wire decoder against arbitrary input: it must
// never panic, and anything it accepts must re-encode to the same bytes
// (canonical encoding), appended or not. Decoding into a dirty ad — one
// holding another ad's fields, and the previous input's decode, complete or
// not — must give exactly what Decode gives, value and error.
func FuzzDecode(f *testing.F) {
	seed := sampleAd()
	data, _ := seed.Encode()
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte{wireMagic})
	f.Add([]byte{wireMagic, wireVersion, 0, 0, 0})
	f.Add(data[:len(data)/2])

	carried := dirtyAd()
	f.Fuzz(func(t *testing.T, in []byte) {
		ad, err := Decode(in)
		for name, dst := range map[string]*Advertisement{"dirty": dirtyAd(), "carried": carried} {
			derr := DecodeInto(dst, in)
			if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
				t.Fatalf("%s: DecodeInto error %v, Decode error %v", name, derr, err)
			}
			if err == nil && !reflect.DeepEqual(dst, ad) {
				t.Fatalf("%s: DecodeInto gave\n %+v\nDecode gave\n %+v", name, dst, ad)
			}
		}
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
		prefix := []byte{0xEE, 0xFF}
		app, err := ad.AppendEncode(prefix)
		if err != nil || !bytes.Equal(app[:2], prefix) || !bytes.Equal(app[2:], out) {
			t.Fatalf("AppendEncode gave %x, %v; want %x then Encode's %x", app, err, prefix, out)
		}
	})
}

// FuzzEncodeDecodeRoundtrip drives the encoder with arbitrary field values:
// every ad the encoder accepts must round-trip exactly, AppendEncode must
// append Encode's bytes exactly, and an ad the encoder refuses leaves
// AppendEncode's buffer as it was. A non-zero sketch value puts a sketch
// holding it on the ad.
func FuzzEncodeDecodeRoundtrip(f *testing.F) {
	f.Add(uint32(1), uint32(2), 100.0, 200.0, 5.0, 500.0, 180.0, "petrol", "kw", "text", uint64(0))
	f.Add(uint32(0), uint32(0), 0.0, 0.0, 0.0, 1.0, 1.0, "", "", "", uint64(0))
	f.Add(uint32(3), uint32(4), 1.0, 2.0, 3.0, 400.0, 60.0, "shoes", "", "sale", uint64(12345))
	f.Fuzz(func(t *testing.T, issuer, seq uint32, x, y, issued, r, d float64, cat, kw, text string, sketch uint64) {
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
		if sketch != 0 {
			a.Sketch = fm.New(4, 32, 7)
			a.Sketch.Add(sketch)
		}
		prefix := []byte{0xEE}
		data, err := a.Encode()
		app, aerr := a.AppendEncode(prefix)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("Encode error %v, AppendEncode error %v", err, aerr)
		}
		if err != nil {
			if !bytes.Equal(app, prefix) {
				t.Fatalf("a refused ad left the buffer as %x", app)
			}
			return // invalid per Validate — fine
		}
		if !bytes.Equal(app[:1], prefix) || !bytes.Equal(app[1:], data) {
			t.Fatalf("AppendEncode gave %x, want %x then Encode's %x", app, prefix, data)
		}
		if len(data) != a.WireSize() || cap(data) != len(data) {
			t.Fatalf("WireSize %d ≠ encoded %d (capacity %d)", a.WireSize(), len(data), cap(data))
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
