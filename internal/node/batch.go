package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"instantad/internal/ads"
	"instantad/internal/fm"
	"instantad/internal/geo"
	"instantad/internal/node/transport"
)

// The wire layer: every ad travels in a batch frame — Issue's announcement
// as a batch of one, a gossip round's firing ads packed under an MTU-aware
// soft cap (SNIPPETS.md snippet 1's ADVERT_CAPACITY-below-MTU shape), pull
// serves likewise — and a periodic digest/pull exchange lets converged
// neighborhoods trade 8-byte ad IDs instead of full payloads. All three
// frame families share one header prefix (magic, version, sender, position)
// so the virtual radio reads every one the same way (decodeHeader).

const (
	// batchMagic leads a batch frame, the one frame that carries ads. Each
	// frame magic is distinct from discovery.BeaconMagic, so beacons and ad
	// frames share one socket: receivers dispatch on the leading byte.
	batchMagic = 0xB1
	// digestMagic leads a cache digest: the sender's live ad-ID list, sent
	// once per digest round so converged neighbors stop re-hearing payloads.
	digestMagic = 0xB2
	// pullMagic leads a pull request: the ad IDs a digest receiver is
	// missing and wants served back as batch frames.
	pullMagic = 0xB3
	// batchVersion is the only wire version of every ad-layer frame so far.
	batchVersion = 1

	// batchHeaderLen is magic+version+sender(4)+pos(16)+vel(16).
	batchHeaderLen = 2 + 4 + 32
	// idHeaderLen is magic+version+sender(4)+pos(16): digest and pull
	// frames carry no velocity (nothing schedules on it).
	idHeaderLen = 2 + 4 + 16

	// maxBatchAds bounds the ads one batch frame may claim, so a hostile
	// count cannot drive a decoder loop far past the datagram it arrived in.
	maxBatchAds = 512
	// maxIDsPerFrame bounds a digest or pull ID list; 2048 IDs is 16 KiB of
	// payload, far more cache than any node configuration holds.
	maxIDsPerFrame = 2048

	// minBatchSoftCap is the smallest configurable soft cap: headers plus at
	// least a few small ads must fit or batching degenerates.
	minBatchSoftCap = 512
	// defaultBatchSoftCap targets a typical 1500-byte Ethernet MTU minus
	// IP/UDP headers with headroom: batch frames under it avoid IP
	// fragmentation on common paths while still packing ~15 small ads.
	defaultBatchSoftCap = 1400
)

// batchFrame is the multi-ad datagram: sender identity and kinematics plus
// 1..maxBatchAds length-prefixed advertisements.
type batchFrame struct {
	Sender uint32
	Pos    geo.Point
	Vel    geo.Vec
	Ads    []*ads.Advertisement
}

// appendHeader writes the shared magic/version/sender/kinematics prefix.
func appendHeader(out []byte, magic byte, sender uint32, vals []float64) []byte {
	out = append(out, magic, batchVersion)
	out = binary.LittleEndian.AppendUint32(out, sender)
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// decodeHeader parses the shared prefix, validating magic, version and
// finite kinematics. It returns the sender and the first nvals (≤ 4) float
// fields.
func decodeHeader(data []byte, magic byte, nvals int) (sender uint32, vals [4]float64, err error) {
	fixed := 6 + 8*nvals
	if len(data) < fixed {
		return 0, vals, errors.New("node: frame too short")
	}
	if data[0] != magic {
		return 0, vals, errors.New("node: bad magic")
	}
	if data[1] != batchVersion {
		return 0, vals, fmt.Errorf("node: unsupported version %d", data[1])
	}
	sender = binary.LittleEndian.Uint32(data[2:6])
	for i := 0; i < nvals; i++ {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[6+8*i:]))
		if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
			return 0, vals, errors.New("node: non-finite kinematics")
		}
	}
	return sender, vals, nil
}

// encode serializes the batch frame into one buffer sized from the ads'
// WireSize, with each ad appended straight into it. It refuses empty batches
// and frames no real socket could carry; the soft cap is the packer's
// business, not the codec's.
func (f *batchFrame) encode() ([]byte, error) {
	if len(f.Ads) == 0 {
		return nil, errors.New("node: empty batch")
	}
	if len(f.Ads) > maxBatchAds {
		return nil, fmt.Errorf("node: batch of %d ads exceeds %d", len(f.Ads), maxBatchAds)
	}
	size := batchHeaderLen + uvarintLen(uint64(len(f.Ads)))
	for _, ad := range f.Ads {
		sz := ad.WireSize()
		size += uvarintLen(uint64(sz)) + sz
	}
	if size > transport.MaxPayload {
		return nil, fmt.Errorf("node: batch of %d bytes exceeds the %d-byte datagram limit", size, transport.MaxPayload)
	}
	out := make([]byte, 0, size)
	out = appendHeader(out, batchMagic, f.Sender,
		[]float64{f.Pos.X, f.Pos.Y, f.Vel.X, f.Vel.Y})
	out = binary.AppendUvarint(out, uint64(len(f.Ads)))
	for _, ad := range f.Ads {
		out = binary.AppendUvarint(out, uint64(ad.WireSize()))
		var err error
		if out, err = ad.AppendEncode(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rxScratch is the receive path's decode memory, reused from datagram to
// datagram: a batch frame's ads and a digest's or pull's ID list. rxPool
// lends one to each dispatch, so no node holds any.
type rxScratch struct {
	batch batchFrame // Ads point at items' ads
	items []*scratchAd
	ids   idFrame
}

var rxPool = sync.Pool{New: func() any { return new(rxScratch) }}

// scratchAd is one ad's decode memory: the ad, and the keyword and sketch
// storage that decoding an ad without them leaves out of it.
type scratchAd struct {
	ad       ads.Advertisement
	keywords []string
	sketch   fm.Sketch
}

// decode decodes data into s.ad, over like's strings when like is not nil.
func (s *scratchAd) decode(data []byte, like *ads.Advertisement) error {
	s.ad.Keywords, s.ad.Sketch = s.keywords, &s.sketch
	if like != nil {
		s.ad.Category, s.ad.Text = like.Category, like.Text
		s.ad.Keywords = append(s.keywords[:0], like.Keywords...)
	}
	err := ads.DecodeInto(&s.ad, data)
	if s.ad.Keywords != nil {
		s.keywords = s.ad.Keywords
	}
	return err
}

// decodeBatch parses a batch datagram into sc. Every claimed ad must decode
// and the frame must end exactly at the last ad — a truncated or padded
// batch is malformed as a whole, mirroring how UDP delivers datagrams whole
// or not at all. The frame and its ads are sc's until sc decodes again, so
// an ad kept past the datagram is cloned. An ad that known caches is decoded
// over the cached copy's strings: a duplicate decodes with no allocation.
// known may be nil.
func (sc *rxScratch) decodeBatch(data []byte, known *ads.Cache) (*batchFrame, error) {
	if len(data) > transport.MaxPayload {
		return nil, errors.New("node: datagram too long")
	}
	sender, vals, err := decodeHeader(data, batchMagic, 4)
	if err != nil {
		return nil, err
	}
	f := &sc.batch
	*f = batchFrame{
		Sender: sender,
		Pos:    geo.Point{X: vals[0], Y: vals[1]},
		Vel:    geo.Vec{X: vals[2], Y: vals[3]},
		Ads:    f.Ads[:0],
	}
	p := data[batchHeaderLen:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > maxBatchAds {
		return nil, errors.New("node: bad batch count")
	}
	p = p[n:]
	for i := range int(count) {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return nil, errors.New("node: truncated batch entry")
		}
		item := p[n : n+int(l)]
		if i == len(sc.items) {
			sc.items = append(sc.items, new(scratchAd))
		}
		var like *ads.Advertisement
		if id, ok := ads.PeekID(item); ok && known != nil {
			if e := known.Get(id); e != nil {
				like = e.Ad
			}
		}
		s := sc.items[i]
		if err := s.decode(item, like); err != nil {
			return nil, err
		}
		f.Ads = append(f.Ads, &s.ad)
		p = p[n+int(l):]
	}
	if len(p) != 0 {
		return nil, errors.New("node: trailing garbage after batch")
	}
	return f, nil
}

// idFrame is the digest/pull shape: the sender, its position (for the
// virtual radio), and a list of ad IDs — the cache contents for a digest,
// the missing set for a pull.
type idFrame struct {
	Sender uint32
	Pos    geo.Point
	IDs    []ads.ID
}

// encode serializes the frame under the given magic (digestMagic or
// pullMagic).
func (f *idFrame) encode(magic byte) ([]byte, error) {
	if len(f.IDs) == 0 {
		return nil, errors.New("node: empty ID frame")
	}
	if len(f.IDs) > maxIDsPerFrame {
		return nil, fmt.Errorf("node: %d IDs exceed %d per frame", len(f.IDs), maxIDsPerFrame)
	}
	out := make([]byte, 0, idHeaderLen+2+8*len(f.IDs))
	out = appendHeader(out, magic, f.Sender, []float64{f.Pos.X, f.Pos.Y})
	out = binary.AppendUvarint(out, uint64(len(f.IDs)))
	for _, id := range f.IDs {
		out = binary.LittleEndian.AppendUint32(out, id.Issuer)
		out = binary.LittleEndian.AppendUint32(out, id.Seq)
	}
	if len(out) > transport.MaxPayload {
		return nil, fmt.Errorf("node: ID frame of %d bytes exceeds the %d-byte datagram limit", len(out), transport.MaxPayload)
	}
	return out, nil
}

// decode parses a digest or pull datagram into f, reusing the storage of
// f.IDs (the caller picks the expected magic from the leading byte it
// dispatched on).
func (f *idFrame) decode(data []byte, magic byte) error {
	if len(data) > transport.MaxPayload {
		return errors.New("node: datagram too long")
	}
	sender, vals, err := decodeHeader(data, magic, 2)
	if err != nil {
		return err
	}
	p := data[idHeaderLen:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > maxIDsPerFrame {
		return errors.New("node: bad ID count")
	}
	p = p[n:]
	if uint64(len(p)) != 8*count {
		return errors.New("node: ID list length mismatch")
	}
	f.Sender, f.Pos = sender, geo.Point{X: vals[0], Y: vals[1]}
	f.IDs = slices.Grow(f.IDs[:0], int(count))[:count]
	for i := range f.IDs {
		f.IDs[i] = ads.ID{
			Issuer: binary.LittleEndian.Uint32(p),
			Seq:    binary.LittleEndian.Uint32(p[4:]),
		}
		p = p[8:]
	}
	return nil
}

// packedBatch is one ready-to-send batch datagram plus its ad count (for
// the batch-size histogram).
type packedBatch struct {
	data []byte
	ads  int
}

// packBatches greedily packs the ads into batch frames no larger than the
// soft cap, each frame a run of list. An ad whose own frame exceeds the cap
// is emitted alone anyway — a datagram cannot be fragmented at this layer —
// and counted in oversize. Ads that fail to encode are skipped (they were
// validated at admission, so this is defensive only).
func packBatches(sender uint32, pos geo.Point, vel geo.Vec, list []*ads.Advertisement, softCap int) (frames []packedBatch, oversize int) {
	if softCap <= 0 || softCap > transport.MaxPayload {
		softCap = transport.MaxPayload
	}
	start, curLen := 0, 0 // the frame being packed is list[start:i]
	flush := func(end int) {
		if end == start {
			return
		}
		f := batchFrame{Sender: sender, Pos: pos, Vel: vel, Ads: list[start:end]}
		if data, err := f.encode(); err == nil {
			frames = append(frames, packedBatch{data: data, ads: end - start})
		}
		start = end
	}
	for i, ad := range list {
		// Cost of this ad in a frame: uvarint length prefix + encoding.
		sz := ad.WireSize()
		cost := uvarintLen(uint64(sz)) + sz
		if i > start && (curLen+cost > softCap || i-start >= maxBatchAds) {
			flush(i)
		}
		if i == start {
			// A fresh frame costs header + count varint (≤ 2 bytes at our caps).
			curLen = batchHeaderLen + 2
			if curLen+cost > softCap {
				oversize++
			}
		}
		curLen += cost
		if curLen > softCap {
			// The oversize single-ad case: ship it alone immediately.
			flush(i + 1)
		}
	}
	flush(len(list))
	return frames, oversize
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
