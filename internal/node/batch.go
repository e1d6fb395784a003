package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"instantad/internal/ads"
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

// encode serializes the batch frame. It refuses empty batches and frames no
// real socket could carry; the soft cap is the packer's business, not the
// codec's.
func (f *batchFrame) encode() ([]byte, error) {
	if len(f.Ads) == 0 {
		return nil, errors.New("node: empty batch")
	}
	if len(f.Ads) > maxBatchAds {
		return nil, fmt.Errorf("node: batch of %d ads exceeds %d", len(f.Ads), maxBatchAds)
	}
	out := make([]byte, 0, batchHeaderLen+len(f.Ads)*96)
	out = appendHeader(out, batchMagic, f.Sender,
		[]float64{f.Pos.X, f.Pos.Y, f.Vel.X, f.Vel.Y})
	out = binary.AppendUvarint(out, uint64(len(f.Ads)))
	for _, ad := range f.Ads {
		adBytes, err := ad.Encode()
		if err != nil {
			return nil, err
		}
		out = binary.AppendUvarint(out, uint64(len(adBytes)))
		out = append(out, adBytes...)
	}
	if len(out) > transport.MaxPayload {
		return nil, fmt.Errorf("node: batch of %d bytes exceeds the %d-byte datagram limit", len(out), transport.MaxPayload)
	}
	return out, nil
}

// decodeBatch parses a batch datagram. Every claimed ad must decode and the
// frame must end exactly at the last ad — a truncated or padded batch is
// malformed as a whole, mirroring how UDP delivers datagrams whole or not
// at all.
func decodeBatch(data []byte) (*batchFrame, error) {
	if len(data) > transport.MaxPayload {
		return nil, errors.New("node: datagram too long")
	}
	sender, vals, err := decodeHeader(data, batchMagic, 4)
	if err != nil {
		return nil, err
	}
	f := &batchFrame{
		Sender: sender,
		Pos:    geo.Point{X: vals[0], Y: vals[1]},
		Vel:    geo.Vec{X: vals[2], Y: vals[3]},
	}
	p := data[batchHeaderLen:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > maxBatchAds {
		return nil, errors.New("node: bad batch count")
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return nil, errors.New("node: truncated batch entry")
		}
		ad, err := ads.Decode(p[n : n+int(l)])
		if err != nil {
			return nil, err
		}
		f.Ads = append(f.Ads, ad)
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

// decodeIDFrame parses a digest or pull datagram (the caller picks the
// expected magic from the leading byte it dispatched on).
func decodeIDFrame(data []byte, magic byte) (*idFrame, error) {
	if len(data) > transport.MaxPayload {
		return nil, errors.New("node: datagram too long")
	}
	sender, vals, err := decodeHeader(data, magic, 2)
	if err != nil {
		return nil, err
	}
	f := &idFrame{Sender: sender, Pos: geo.Point{X: vals[0], Y: vals[1]}}
	p := data[idHeaderLen:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > maxIDsPerFrame {
		return nil, errors.New("node: bad ID count")
	}
	p = p[n:]
	if uint64(len(p)) != 8*count {
		return nil, errors.New("node: ID list length mismatch")
	}
	f.IDs = make([]ads.ID, count)
	for i := range f.IDs {
		f.IDs[i] = ads.ID{
			Issuer: binary.LittleEndian.Uint32(p),
			Seq:    binary.LittleEndian.Uint32(p[4:]),
		}
		p = p[8:]
	}
	return f, nil
}

// packedBatch is one ready-to-send batch datagram plus its ad count (for
// the batch-size histogram).
type packedBatch struct {
	data []byte
	ads  int
}

// packBatches greedily packs the ads into batch frames no larger than the
// soft cap. An ad whose own frame exceeds the cap is emitted alone anyway —
// a datagram cannot be fragmented at this layer — and counted in oversize.
// Ads that fail to encode are skipped (they were validated at admission, so
// this is defensive only).
func packBatches(sender uint32, pos geo.Point, vel geo.Vec, list []*ads.Advertisement, softCap int) (frames []packedBatch, oversize int) {
	if softCap <= 0 || softCap > transport.MaxPayload {
		softCap = transport.MaxPayload
	}
	var cur *batchFrame
	curLen := 0
	flush := func() {
		if cur == nil {
			return
		}
		data, err := cur.encode()
		if err == nil {
			frames = append(frames, packedBatch{data: data, ads: len(cur.Ads)})
		}
		cur, curLen = nil, 0
	}
	for _, ad := range list {
		// Cost of this ad in a frame: uvarint length prefix + encoding.
		sz := ad.WireSize()
		cost := uvarintLen(uint64(sz)) + sz
		// A fresh frame costs header + count varint (≤ 2 bytes at our caps).
		if cur != nil && (curLen+cost > softCap || len(cur.Ads) >= maxBatchAds) {
			flush()
		}
		if cur == nil {
			cur = &batchFrame{Sender: sender, Pos: pos, Vel: vel}
			curLen = batchHeaderLen + 2
			if curLen+cost > softCap {
				oversize++
			}
		}
		cur.Ads = append(cur.Ads, ad)
		curLen += cost
		if curLen > softCap {
			// The oversize single-ad case: ship it alone immediately.
			flush()
		}
	}
	flush()
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
