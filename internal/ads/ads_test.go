package ads

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"instantad/internal/fm"
	"instantad/internal/geo"
)

func sampleAd() *Advertisement {
	return &Advertisement{
		ID:       ID{Issuer: 7, Seq: 3},
		Origin:   geo.Point{X: 750, Y: 750},
		IssuedAt: 60,
		R:        500,
		D:        1800,
		Category: "petrol",
		Text:     "Unleaded 91 at $1.45/L until noon",
	}
}

func TestAgeAndExpired(t *testing.T) {
	a := sampleAd()
	if got := a.Age(50); got != 0 {
		t.Errorf("pre-issue age = %v, want 0", got)
	}
	if got := a.Age(100); got != 40 {
		t.Errorf("age = %v, want 40", got)
	}
	if a.Expired(60 + 1800) {
		t.Error("expired exactly at D")
	}
	if !a.Expired(60 + 1800.1) {
		t.Error("not expired after D")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := sampleAd()
	a.Sketch = fm.New(4, 32, 1)
	a.Sketch.Add(11)
	c := a.Clone()
	c.R = 999
	c.Sketch.Add(22)
	if a.R == 999 {
		t.Error("clone shares scalar state")
	}
	if reflect.DeepEqual(a.Sketch, c.Sketch) {
		t.Error("clone shares sketch state")
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Advertisement){
		func(a *Advertisement) { a.R = 0 },
		func(a *Advertisement) { a.D = -1 },
		func(a *Advertisement) { a.IssuedAt = -5 },
		func(a *Advertisement) { a.Category = strings.Repeat("x", 256) },
		func(a *Advertisement) { a.Text = strings.Repeat("x", 64*1024+1) },
	}
	for i, mutate := range bad {
		a := sampleAd()
		mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := sampleAd().Validate(); err != nil {
		t.Errorf("valid ad rejected: %v", err)
	}
}

// TestValidateRejectsNonFinite sets each float field to NaN and to either
// infinity, and patches a valid frame's D (offset 42) to +Inf: Validate and
// Decode must refuse them all. An ad whose D is +Inf or NaN never expires, so
// a live node that took one would gossip it forever.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Advertisement) *float64{
		"R":        func(a *Advertisement) *float64 { return &a.R },
		"D":        func(a *Advertisement) *float64 { return &a.D },
		"IssuedAt": func(a *Advertisement) *float64 { return &a.IssuedAt },
		"Origin.X": func(a *Advertisement) *float64 { return &a.Origin.X },
		"Origin.Y": func(a *Advertisement) *float64 { return &a.Origin.Y },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			a := sampleAd()
			*field(a) = v
			if err := a.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
	data, err := sampleAd().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Float64frombits(binary.LittleEndian.Uint64(data[42:])); d != sampleAd().D {
		t.Fatalf("offset 42 holds %v, not D", d)
	}
	binary.LittleEndian.PutUint64(data[42:], math.Float64bits(math.Inf(1)))
	if ad, err := Decode(data); err == nil {
		t.Errorf("Decode accepted a frame with D = %v", ad.D)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	a := sampleAd()
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != a.WireSize() {
		t.Errorf("encoded %d bytes, WireSize says %d", len(data), a.WireSize())
	}
	b, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, a) {
		t.Errorf("roundtrip mismatch:\n  got  %+v\n  want %+v", b, a)
	}
}

func TestEncodeDecodeWithSketch(t *testing.T) {
	a := sampleAd()
	a.Sketch = fm.New(8, 32, 42)
	a.Sketch.Add(1)
	a.Sketch.Add(2)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != a.WireSize() {
		t.Errorf("encoded %d bytes, WireSize says %d", len(data), a.WireSize())
	}
	b, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sketch == nil || !reflect.DeepEqual(b.Sketch, a.Sketch) {
		t.Error("sketch did not survive roundtrip")
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(issuer, seq uint32, x, y uint16, cat, text string, issued uint16, r, d uint16) bool {
		if len(cat) > 255 || len(text) > 64*1024 {
			return true
		}
		a := &Advertisement{
			ID:       ID{Issuer: issuer, Seq: seq},
			Origin:   geo.Point{X: float64(x), Y: float64(y)},
			IssuedAt: float64(issued),
			R:        float64(r) + 1,
			D:        float64(d) + 1,
			Category: cat,
			Text:     text,
		}
		data, err := a.Encode()
		if err != nil {
			return false
		}
		if len(data) != a.WireSize() {
			return false
		}
		b, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := sampleAd().Encode()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{0x00}, good[1:]...),
		"bad version": append([]byte{wireMagic, 99}, good[2:]...),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0xFF),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Corrupt sketch flag.
	withSketch := sampleAd()
	withSketch.Sketch = fm.New(2, 16, 1)
	data, _ := withSketch.Encode()
	// Find the flag: it's at WireSize(no-sketch fields)… simpler: flip the
	// first 0x01 byte from the end region.
	for i := len(data) - withSketch.Sketch.WireSize() - 3; i < len(data); i++ {
		if data[i] == 1 {
			data[i] = 7
			break
		}
	}
	if _, err := Decode(data); err == nil {
		t.Error("bad sketch flag accepted")
	}
}

func TestIDString(t *testing.T) {
	if s := (ID{Issuer: 3, Seq: 9}).String(); s != "ad-3/9" {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkEncode(b *testing.B) {
	a := sampleAd()
	a.Sketch = fm.New(8, 32, 1)
	for i := 0; i < b.N; i++ {
		if _, err := a.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	a := sampleAd()
	a.Sketch = fm.New(8, 32, 1)
	data, _ := a.Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKeywordsRoundtripAndMatch(t *testing.T) {
	a := sampleAd()
	a.Keywords = []string{"fuel", "discount"}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != a.WireSize() {
		t.Errorf("encoded %d bytes, WireSize says %d", len(data), a.WireSize())
	}
	b, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Keywords, a.Keywords) {
		t.Errorf("keywords roundtrip: %v", b.Keywords)
	}
	// Matching: category or any keyword, whatever the order and duplicates
	// the interest set was given with.
	for _, c := range []struct {
		interests []string
		want      bool
	}{
		{[]string{"petrol"}, true},
		{[]string{"discount"}, true},
		{[]string{"parking"}, false},
		{[]string{"zoo", "parking", "discount", "parking"}, true},
		{[]string{"parking", "parking", "aisle"}, false},
		{nil, false},
	} {
		if got := b.MatchesAny(InterestSet(c.interests)); got != c.want {
			t.Errorf("MatchesAny(InterestSet(%q)) = %v, want %v", c.interests, got, c.want)
		}
	}
}

// TestInterestSetSortsAndDedups checks that InterestSet returns a sorted,
// duplicate-free set and leaves its argument alone.
func TestInterestSetSortsAndDedups(t *testing.T) {
	in := []string{"petrol", "food", "petrol", "books", "food"}
	got := InterestSet(in)
	if want := []string{"books", "food", "petrol"}; !reflect.DeepEqual(got, want) {
		t.Errorf("InterestSet(%q) = %q, want %q", in, got, want)
	}
	if in[0] != "petrol" || in[4] != "food" {
		t.Errorf("InterestSet reordered its argument: %q", in)
	}
	if InterestSet(nil) != nil || InterestSet([]string{}) != nil {
		t.Error("an empty interest set is not nil")
	}
}

func TestKeywordValidation(t *testing.T) {
	a := sampleAd()
	a.Keywords = make([]string, 17)
	for i := range a.Keywords {
		a.Keywords[i] = "k"
	}
	if err := a.Validate(); err == nil {
		t.Error("17 keywords accepted")
	}
	a.Keywords = []string{""}
	if err := a.Validate(); err == nil {
		t.Error("empty keyword accepted")
	}
	a.Keywords = []string{strings.Repeat("x", 65)}
	if err := a.Validate(); err == nil {
		t.Error("oversized keyword accepted")
	}
}

func TestCloneCopiesKeywords(t *testing.T) {
	a := sampleAd()
	a.Keywords = []string{"fuel"}
	c := a.Clone()
	c.Keywords[0] = "mutated"
	if a.Keywords[0] != "fuel" {
		t.Error("clone shares keyword storage")
	}
}
