// Package wire holds the datagram wire-format facts shared by the live
// node and the transports that carry its frames: the UDP payload bound, the
// leading magic byte of every frame family, and a header snooper that lets a
// medium (internal/node/memnet) learn a sender's position from any
// self-describing frame without importing the node layer itself.
//
// The package sits below internal/node and internal/node/memnet so the
// 65507-byte hard limit is defined exactly once — the node's batch soft-cap
// logic and the transport's refusal to carry oversized datagrams can never
// drift apart.
package wire

import (
	"encoding/binary"
	"math"

	"instantad/internal/geo"
)

const (
	// MaxPayload is the largest UDP payload: 65535 minus the 8-byte UDP and
	// 20-byte IPv4 headers. Frames beyond it cannot traverse a real socket,
	// so encoders refuse to build them and transports refuse to carry them.
	MaxPayload = 65507

	// BatchMagic leads a batch frame, the one frame that carries ads
	// (sender kinematics + 1..n length-prefixed ads packed under an
	// MTU-aware soft cap).
	BatchMagic = 0xB1
	// DigestMagic leads a cache digest: the sender's live ad-ID list, sent
	// once per digest round so converged neighbors stop re-hearing payloads.
	DigestMagic = 0xB2
	// PullMagic leads a pull request: the ad IDs a digest receiver is
	// missing and wants served back as batch frames.
	PullMagic = 0xB3

	// senderPosOff is where the sender's position sits in every ad-layer
	// frame: magic(1) + version(1) + sender id(4), then X and Y as little-
	// endian float64s. Batch, digest and pull all share this prefix by
	// construction.
	senderPosOff = 6
	// version 1 is the only wire version of every ad-layer frame so far.
	version = 1
)

// SenderPos extracts the claimed sender position from an ad-layer frame
// (batch, digest, or pull). It reports false for other frame
// families, truncated headers, unknown versions, and non-finite coordinates
// — a snooping medium must never learn a position it could not trust.
func SenderPos(b []byte) (geo.Point, bool) {
	if len(b) < senderPosOff+16 || b[1] != version {
		return geo.Point{}, false
	}
	switch b[0] {
	case BatchMagic, DigestMagic, PullMagic:
	default:
		return geo.Point{}, false
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(b[senderPosOff:]))
	y := math.Float64frombits(binary.LittleEndian.Uint64(b[senderPosOff+8:]))
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		return geo.Point{}, false
	}
	return geo.Point{X: x, Y: y}, true
}
