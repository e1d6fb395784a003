package node

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/fm"
	"instantad/internal/geo"
	"instantad/internal/node/discovery"
	"instantad/internal/node/transport"
	"instantad/internal/rng"
)

func sampleBatch(nads int) *batchFrame {
	f := &batchFrame{
		Sender: 42,
		Pos:    geo.Point{X: 123.5, Y: -7},
		Vel:    geo.Vec{X: 3, Y: -4},
	}
	for i := 0; i < nads; i++ {
		f.Ads = append(f.Ads, &ads.Advertisement{
			ID: ads.ID{Issuer: 42, Seq: uint32(i)}, Origin: geo.Point{X: 1, Y: 2},
			IssuedAt: 10, R: 500, D: 180, Category: "petrol", Text: "live",
		})
	}
	return f
}

// batchDatagram encodes the ads as one batch frame from sender at pos.
func batchDatagram(tb testing.TB, sender uint32, pos geo.Point, list ...*ads.Advertisement) []byte {
	tb.Helper()
	data, err := (&batchFrame{Sender: sender, Pos: pos, Ads: list}).encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// decodeBatch decodes a batch datagram into scratch of its own, so the
// frame and its ads are the caller's to keep.
func decodeBatch(data []byte) (*batchFrame, error) {
	return new(rxScratch).decodeBatch(data, nil)
}

// decodeIDFrame decodes a digest or pull datagram into a frame of its own.
func decodeIDFrame(data []byte, magic byte) (*idFrame, error) {
	f := &idFrame{}
	if err := f.decode(data, magic); err != nil {
		return nil, err
	}
	return f, nil
}

func sampleDigest(nids int) *idFrame {
	f := &idFrame{Sender: 42, Pos: geo.Point{X: 123.5, Y: -7}}
	for i := 0; i < nids; i++ {
		f.IDs = append(f.IDs, ads.ID{Issuer: 42, Seq: uint32(i)})
	}
	return f
}

func TestBatchRoundtrip(t *testing.T) {
	f := sampleBatch(3)
	data, err := f.encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != batchMagic {
		t.Fatalf("batch leads with 0x%02X, want 0x%02X", data[0], batchMagic)
	}
	d, err := decodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sender != f.Sender || d.Pos != f.Pos || d.Vel != f.Vel {
		t.Errorf("header mismatch: %+v vs %+v", d, f)
	}
	if !reflect.DeepEqual(d.Ads, f.Ads) {
		t.Errorf("ads mismatch: %+v vs %+v", d.Ads, f.Ads)
	}
	// The virtual radio reads the sender position from the shared prefix.
	if _, v, err := decodeHeader(data, batchMagic, 2); err != nil || (geo.Point{X: v[0], Y: v[1]}) != f.Pos {
		t.Errorf("decodeHeader = %v, %v; want %v", v, err, f.Pos)
	}
}

func TestIDFrameRoundtrip(t *testing.T) {
	for _, magic := range []byte{digestMagic, pullMagic} {
		f := sampleDigest(5)
		data, err := f.encode(magic)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != magic {
			t.Fatalf("frame leads with 0x%02X, want 0x%02X", data[0], magic)
		}
		d, err := decodeIDFrame(data, magic)
		if err != nil {
			t.Fatal(err)
		}
		if d.Sender != f.Sender || d.Pos != f.Pos || !reflect.DeepEqual(d.IDs, f.IDs) {
			t.Errorf("mismatch: %+v vs %+v", d, f)
		}
		if _, v, err := decodeHeader(data, magic, 2); err != nil || (geo.Point{X: v[0], Y: v[1]}) != f.Pos {
			t.Errorf("decodeHeader = %v, %v; want %v", v, err, f.Pos)
		}
		// The other magic must refuse it: digests cannot masquerade as pulls.
		var other byte = digestMagic
		if magic == digestMagic {
			other = pullMagic
		}
		if _, err := decodeIDFrame(data, other); err == nil {
			t.Error("frame accepted under the wrong magic")
		}
	}
}

func TestBatchEncodeLimits(t *testing.T) {
	big := sampleBatch(2)
	big.Ads[0].Text = string(make([]byte, 40*1024))
	big.Ads[1].Text = string(make([]byte, 40*1024))
	// A maximal 64 KiB ad text passes ad-level validation, but even alone
	// its frame overflows the 65507-byte datagram payload.
	single := sampleBatch(1)
	single.Ads[0].Text = string(make([]byte, 64*1024))
	if _, err := single.Ads[0].Encode(); err != nil {
		t.Fatalf("the ad alone should be valid: %v", err)
	}
	cases := []struct {
		name   string
		encode func() ([]byte, error)
	}{
		{"empty batch", (&batchFrame{Sender: 1}).encode},
		{"over-count batch", sampleBatch(maxBatchAds + 1).encode},
		{"batch past the datagram hard limit", big.encode},
		{"single oversized ad", single.encode},
		{"empty ID frame", func() ([]byte, error) { return (&idFrame{Sender: 1}).encode(digestMagic) }},
		{"over-count ID frame", func() ([]byte, error) { return sampleDigest(maxIDsPerFrame + 1).encode(digestMagic) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.encode(); err == nil {
				t.Errorf("%s encoded", c.name)
			}
		})
	}
}

func TestBatchDecodeErrors(t *testing.T) {
	good, _ := sampleBatch(2).encode()
	cases := map[string][]byte{
		"empty":          {},
		"short":          good[:10],
		"header only":    good[:batchHeaderLen],
		"bad magic":      append([]byte{0x00}, good[1:]...),
		"bad version":    append([]byte{batchMagic, 99}, good[2:]...),
		"truncated ad":   good[:len(good)-3],
		"trailing bytes": append(append([]byte(nil), good...), 0xFF),
	}
	for name, data := range cases {
		if _, err := decodeBatch(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A zero ad count is malformed, not an empty batch.
	zero := append([]byte(nil), good[:batchHeaderLen]...)
	zero = append(zero, 0)
	if _, err := decodeBatch(zero); err == nil {
		t.Error("zero-count batch accepted")
	}

	goodID, _ := sampleDigest(3).encode(digestMagic)
	idCases := map[string][]byte{
		"empty":       {},
		"header only": goodID[:idHeaderLen],
		"bad magic":   append([]byte{0x00}, goodID[1:]...),
		"bad version": append([]byte{digestMagic, 99}, goodID[2:]...),
		"short list":  goodID[:len(goodID)-1],
		"long list":   append(append([]byte(nil), goodID...), 0xFF),
	}
	for name, data := range idCases {
		if _, err := decodeIDFrame(data, digestMagic); err == nil {
			t.Errorf("ID frame %s accepted", name)
		}
	}
}

// randomAd draws an arbitrary but valid ad from the stream: random keyword
// sets, payload sizes, and an optional populated sketch.
func randomAd(r *rng.Stream) *ads.Advertisement {
	ad := &ads.Advertisement{
		ID:       ads.ID{Issuer: uint32(r.Uint64()), Seq: uint32(r.Uint64())},
		Origin:   geo.Point{X: r.Range(-1e6, 1e6), Y: r.Range(-1e6, 1e6)},
		IssuedAt: r.Range(0, 1e6),
		R:        r.Range(1e-3, 1e5),
		D:        r.Range(1e-3, 1e6),
		Category: "cat-"[:1+r.Intn(4)],
		Text:     string(make([]byte, r.Intn(512))),
	}
	for i, nk := 0, r.Intn(5); i < nk; i++ {
		ad.Keywords = append(ad.Keywords, "kw-"[:1+r.Intn(3)])
	}
	if r.Bool(0.5) {
		ad.Sketch = fm.New(4+r.Intn(8), 16+r.Intn(16), r.Uint64())
		for i, adds := 0, r.Intn(20); i < adds; i++ {
			ad.Sketch.Add(r.Uint64())
		}
	}
	return ad
}

// randomBatch draws an arbitrary but valid batch from the stream.
func randomBatch(r *rng.Stream) *batchFrame {
	f := &batchFrame{
		Sender: uint32(r.Uint64()),
		Pos:    geo.Point{X: r.Range(-1e6, 1e6), Y: r.Range(-1e6, 1e6)},
		Vel:    geo.Vec{X: r.Range(-100, 100), Y: r.Range(-100, 100)},
	}
	for i, na := 0, 1+r.Intn(8); i < na; i++ {
		f.Ads = append(f.Ads, randomAd(r))
	}
	return f
}

// TestBatchRoundtripProperty drives the batch codec across a few hundred
// randomized frames: every encode must decode back to a deeply equal value.
func TestBatchRoundtripProperty(t *testing.T) {
	r := rng.New(20260808)
	for i := 0; i < 200; i++ {
		f := randomBatch(r)
		data, err := f.encode()
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		d, err := decodeBatch(data)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if d.Sender != f.Sender || d.Pos != f.Pos || d.Vel != f.Vel {
			t.Fatalf("case %d: header mismatch: %+v vs %+v", i, d, f)
		}
		if !reflect.DeepEqual(d.Ads, f.Ads) {
			t.Fatalf("case %d: ads mismatch", i)
		}
	}
}

// TestPackBatchesRespectsSoftCap packs random ad lists under assorted caps
// and checks every frame stays under the cap (oversize singles excepted),
// no ad is lost or duplicated, and the packing is as dense as promised —
// any two consecutive frames could not have been merged.
func TestPackBatchesRespectsSoftCap(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 50; i++ {
		var list []*ads.Advertisement
		for j, na := 0, 1+r.Intn(40); j < na; j++ {
			list = append(list, randomAd(r))
		}
		softCap := minBatchSoftCap + r.Intn(4000)
		frames, oversize := packBatches(1, geo.Point{}, geo.Vec{}, list, softCap)
		total, overFrames := 0, 0
		for _, f := range frames {
			total += f.ads
			if len(f.data) > softCap {
				overFrames++
				if f.ads != 1 {
					t.Fatalf("case %d: %d-ad frame of %d bytes exceeds the %d cap", i, f.ads, len(f.data), softCap)
				}
			}
			if d, err := decodeBatch(f.data); err != nil {
				t.Fatalf("case %d: packed frame does not decode: %v", i, err)
			} else if len(d.Ads) != f.ads {
				t.Fatalf("case %d: frame claims %d ads, decodes %d", i, f.ads, len(d.Ads))
			}
		}
		if total != len(list) {
			t.Fatalf("case %d: packed %d of %d ads", i, total, len(list))
		}
		if overFrames != oversize {
			t.Fatalf("case %d: %d over-cap frames but oversize=%d", i, overFrames, oversize)
		}
	}
}

func TestPackBatchesOversizeSingle(t *testing.T) {
	small := sampleBatch(1).Ads[0]
	big := small.Clone()
	big.ID.Seq = 99
	big.Text = string(make([]byte, 2*minBatchSoftCap))
	frames, oversize := packBatches(1, geo.Point{}, geo.Vec{}, []*ads.Advertisement{small, big, small.Clone()}, minBatchSoftCap)
	if oversize != 1 {
		t.Fatalf("oversize = %d, want 1", oversize)
	}
	total := 0
	for _, f := range frames {
		total += f.ads
	}
	if total != 3 {
		t.Fatalf("packed %d ads, want 3 (oversize ads still ship)", total)
	}
}

// oversizedAdFrame builds a batch of one whose ad claims a text far past
// the frame's end — the truncated/oversized-ad shape the fuzzer must keep
// rejecting. The entry length is honest, so the claim reaches the ad decoder.
func oversizedAdFrame() []byte {
	ad := []byte{0xAD, 1}                   // ad magic + version
	ad = append(ad, make([]byte, 48)...)    // id + origin + times
	ad = append(ad, 0)                      // empty category
	ad = append(ad, 0)                      // no keywords
	ad = append(ad, 0xFF, 0xFF, 0xFF, 0x7F) // text length ≈ 256 MiB
	frame := []byte{batchMagic, batchVersion}
	frame = append(frame, make([]byte, batchHeaderLen-2)...) // sender + kinematics, all zero
	frame = append(frame, 1, byte(len(ad)))                  // one entry of len(ad) bytes
	return append(frame, ad...)
}

// FuzzReadDispatch hardens the receive path behind the node's socket. Every
// input goes through Node.dispatch on one node with discovery on, over a
// scripted conn, so the range check, integration, digest answers, pull
// serves and beacon handling run on fuzzed frames; a frame that its codec
// rejects must count as malformed, as must one of no known family. The
// codecs are checked too: accepted frames must re-encode, beacons byte for
// byte, ad-layer frames back to a deeply equal value (batch counts and ad
// lengths are uvarints, so byte-for-byte canonicality is not promised there
// — semantic identity is). A datagram is shared and read-only, so dispatch
// must leave every byte of its input as it was.
func FuzzReadDispatch(f *testing.F) {
	good, _ := sampleBatch(3).encode()
	one, _ := sampleBatch(1).encode()
	withSketch := sampleBatch(2)
	withSketch.Ads[1].Sketch = fm.New(8, 32, 7)
	withSketch.Ads[1].Sketch.Add(12345)
	goodSketch, _ := withSketch.encode()
	digest, _ := sampleDigest(4).encode(digestMagic)
	pull, _ := sampleDigest(2).encode(pullMagic)
	f.Add(good)
	f.Add(one)
	f.Add(goodSketch)
	f.Add(digest)
	f.Add(pull)
	f.Add([]byte{})
	f.Add(good[:1])
	f.Add(good[:batchHeaderLen])
	f.Add(good[:batchHeaderLen+1])
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0xFF))
	f.Add(digest[:idHeaderLen+1])
	f.Add(digest[:len(digest)-1])
	f.Add(oversizedAdFrame())
	beacon, _ := discovery.Beacon{
		ID: 7, Addr: "127.0.0.1:7001", Pos: geo.Point{X: 10}, Range: 250,
	}.Encode()
	f.Add(beacon)
	f.Add(beacon[:1])
	f.Add(beacon[:len(beacon)/2])
	f.Add(beacon[:len(beacon)-1])
	f.Add(append(append([]byte(nil), beacon...), 0xFF))
	f.Add([]byte{discovery.BeaconMagic})
	cfg := testConfig(1, geo.Point{})
	cfg.Transport = literalTransport{}
	cfg.BeaconInterval, cfg.NeighborTTL = time.Second, 3*time.Second
	cfg.DigestEvery = 1
	n, _ := newFakeNode(f, cfg)
	f.Fuzz(func(t *testing.T, in []byte) {
		before := n.Stats()
		orig := bytes.Clone(in)
		n.dispatch(in, fakeAddr.String())
		if !bytes.Equal(in, orig) {
			t.Fatalf("dispatch wrote into the datagram it read:\n before %x\n after  %x", orig, in)
		}
		malformed := n.Stats().Malformed - before.Malformed
		if malformed > 1 {
			t.Fatalf("one datagram counted malformed %d times", malformed)
		}
		// An ad frame whose header names a sender out of range is refused
		// before its body is read, so its codec's verdict goes uncounted.
		far := false
		if len(in) > 0 && (in[0] == batchMagic || in[0] == digestMagic || in[0] == pullMagic) {
			if _, v, err := decodeHeader(in, in[0], 2); err == nil {
				far = geo.Point{X: v[0], Y: v[1]}.Dist(geo.Point{}) > cfg.Range
			}
			if got := n.Stats().OutOfRange - before.OutOfRange; far != (got == 1) {
				t.Fatalf("sender out of range %v, but the node counted %d out of range", far, got)
			}
		}
		rejected := func(err error) {
			t.Helper()
			if (err != nil && !far) != (malformed == 1) {
				t.Fatalf("codec error %v, but the handler counted %d malformed", err, malformed)
			}
		}
		if len(in) == 0 {
			rejected(errors.New("empty datagram"))
			return
		}
		switch in[0] {
		case discovery.BeaconMagic:
			b, err := discovery.DecodeBeacon(in)
			if err != nil {
				rejected(err) // an accepted beacon may still name an unroutable address
				return
			}
			out, err := b.Encode()
			if err != nil {
				t.Fatalf("accepted beacon does not re-encode: %v", err)
			}
			if len(out) != len(in) {
				t.Fatalf("non-canonical beacon: %d vs %d bytes", len(out), len(in))
			}
		case batchMagic:
			b, err := decodeBatch(in)
			rejected(err)
			if err != nil {
				return
			}
			out, err := b.encode()
			if err != nil {
				t.Fatalf("accepted batch does not re-encode: %v", err)
			}
			again, err := decodeBatch(out)
			if err != nil {
				t.Fatalf("re-encoded batch does not decode: %v", err)
			}
			if !reflect.DeepEqual(b, again) {
				t.Fatal("batch not stable across encode/decode")
			}
		case digestMagic, pullMagic:
			d, err := decodeIDFrame(in, in[0])
			rejected(err)
			if err != nil {
				return
			}
			out, err := d.encode(in[0])
			if err != nil {
				t.Fatalf("accepted ID frame does not re-encode: %v", err)
			}
			again, err := decodeIDFrame(out, in[0])
			if err != nil {
				t.Fatalf("re-encoded ID frame does not decode: %v", err)
			}
			if !reflect.DeepEqual(d, again) {
				t.Fatal("ID frame not stable across encode/decode")
			}
		default:
			rejected(errors.New("no known magic"))
		}
	})
}

// literalTransport resolves literal addresses only, so a fuzzed beacon's
// address never reaches a name resolver.
type literalTransport struct{ transport.UDP }

func (literalTransport) Resolve(addr string) (string, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return "", err
	}
	return ap.String(), nil
}
