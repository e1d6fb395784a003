// Package discovery implements beacon-based neighbor discovery and
// membership for the live node layer: the HELLO beacon wire format and the
// TTL-expiring neighbor table that turns "whoever we can hear" into a
// concrete datagram peer set.
//
// The paper's protocol assumes a broadcast medium where peers simply hear
// whoever is in range. Over unicast datagrams that medium has to be
// reconstructed: each node periodically broadcasts a small HELLO beacon
// (identity, kinematics, radio range, protocol-epoch hint, and the address
// it can be reached at) to everyone it currently knows, seeds included while
// it knows nobody. Receivers feed beacons into a Table; entries that stop
// being refreshed age out after a TTL, which is the layer's failure
// detector. The node layer (internal/node) adds and drops peers on Table
// events so the peer set tracks the live, reachable neighborhood.
package discovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"instantad/internal/geo"
	"instantad/internal/obs"
)

const (
	// BeaconMagic is the first byte of every HELLO beacon datagram. It is
	// distinct from the ad-layer frame magics so beacons and ads share one
	// socket: receivers dispatch on the leading byte.
	BeaconMagic = 0xAB
	// BeaconVersion is the current beacon wire version.
	BeaconVersion = 1
	// beaconFixedLen is magic+version+id(4)+pos(16)+vel(16)+range(8)+
	// epoch(8)+addrLen(1).
	beaconFixedLen = 2 + 4 + 32 + 8 + 8 + 1
	// MaxAddrLen bounds the advertised address string on the wire.
	MaxAddrLen = 255
)

// Beacon is one HELLO announcement: who is speaking, where they are, how far
// their radio carries, which protocol epoch they gossip on, and the datagram
// address they can be reached at.
type Beacon struct {
	// ID is the sender's stable node identity.
	ID uint32
	// Addr is the sender's advertised listen address — what a receiver
	// should AddPeer. It is the sender's own claim (its bound socket, or an
	// explicit advertise address behind NAT), not the datagram source,
	// because beacons may be relayed by a third party as introductions.
	Addr string
	// Pos and Vel are the sender's kinematics at send time.
	Pos geo.Point
	Vel geo.Vec
	// Range is the sender's virtual radio range in meters (0 = overlay).
	Range float64
	// Epoch is the sender's protocol-time zero as Unix seconds. Receivers
	// compare it with their own epoch to detect misconfigured clocks; ad
	// ages are meaningless across mismatched epochs.
	Epoch float64
}

// Validate checks a beacon is encodable and semantically sane.
func (b Beacon) Validate() error {
	if b.Addr == "" {
		return errors.New("discovery: beacon without an address")
	}
	if len(b.Addr) > MaxAddrLen {
		return fmt.Errorf("discovery: beacon address of %d bytes exceeds %d", len(b.Addr), MaxAddrLen)
	}
	for _, v := range []float64{b.Pos.X, b.Pos.Y, b.Vel.X, b.Vel.Y, b.Range, b.Epoch} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("discovery: non-finite beacon field")
		}
	}
	if b.Range < 0 {
		return errors.New("discovery: negative beacon range")
	}
	return nil
}

// Encode serializes the beacon to its datagram form.
func (b Beacon) Encode() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	out := make([]byte, 0, beaconFixedLen+len(b.Addr))
	out = append(out, BeaconMagic, BeaconVersion)
	out = binary.LittleEndian.AppendUint32(out, b.ID)
	for _, v := range []float64{b.Pos.X, b.Pos.Y, b.Vel.X, b.Vel.Y, b.Range, b.Epoch} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	out = append(out, byte(len(b.Addr)))
	out = append(out, b.Addr...)
	return out, nil
}

// DecodeBeacon parses a beacon datagram. It rejects truncation, trailing
// garbage, non-finite kinematics, and out-of-spec addresses, so a fuzzer can
// assert that every accepted frame re-encodes canonically.
func DecodeBeacon(data []byte) (Beacon, error) {
	var b Beacon
	if len(data) < beaconFixedLen+1 {
		return b, errors.New("discovery: beacon too short")
	}
	if data[0] != BeaconMagic {
		return b, errors.New("discovery: bad beacon magic")
	}
	if data[1] != BeaconVersion {
		return b, fmt.Errorf("discovery: unsupported beacon version %d", data[1])
	}
	b.ID = binary.LittleEndian.Uint32(data[2:6])
	vals := make([]float64, 6)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[6+8*i:]))
		if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
			return b, errors.New("discovery: non-finite beacon field")
		}
	}
	b.Pos = geo.Point{X: vals[0], Y: vals[1]}
	b.Vel = geo.Vec{X: vals[2], Y: vals[3]}
	b.Range = vals[4]
	b.Epoch = vals[5]
	if b.Range < 0 {
		return b, errors.New("discovery: negative beacon range")
	}
	addrLen := int(data[beaconFixedLen-1])
	if addrLen == 0 {
		return b, errors.New("discovery: beacon without an address")
	}
	if len(data) != beaconFixedLen+addrLen {
		return b, fmt.Errorf("discovery: beacon length %d, want %d", len(data), beaconFixedLen+addrLen)
	}
	b.Addr = string(data[beaconFixedLen:])
	return b, nil
}

// Event classifies what a beacon taught the table.
type Event int

const (
	// Refreshed: a known neighbor, last-heard bumped.
	Refreshed Event = iota
	// New: a neighbor not previously in the table.
	New
	// AddrChanged: a known neighbor announcing a different address (it
	// rebound its socket); the previous address is stale.
	AddrChanged
)

func (e Event) String() string {
	switch e {
	case Refreshed:
		return "refreshed"
	case New:
		return "new"
	case AddrChanged:
		return "addr-changed"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Neighbor is one live entry of the table: the latest beacon plus the
// membership bookkeeping.
type Neighbor struct {
	ID    uint32    `json:"id"`
	Addr  string    `json:"addr"`
	Pos   geo.Point `json:"pos"`
	Vel   geo.Vec   `json:"vel"`
	Range float64   `json:"range"`
	Epoch float64   `json:"epoch"`
	// FirstHeard and LastHeard are wall-clock receipt times.
	FirstHeard time.Time `json:"first_heard"`
	LastHeard  time.Time `json:"last_heard"`
	// Beacons counts how many beacons this neighbor has been heard from.
	Beacons uint64 `json:"beacons"`
}

// Table is a concurrency-safe neighbor table with TTL expiry. Entries are
// created and refreshed by Observe and removed by Sweep once they have not
// been heard from for the TTL — the membership failure detector.
type Table struct {
	mu  sync.Mutex
	ttl time.Duration
	m   map[uint32]*Neighbor

	// Instruments, nil until InstrumentWith is called.
	obsNew          *obs.Counter
	obsRefreshed    *obs.Counter
	obsAddrChanged  *obs.Counter
	obsExpired      *obs.Counter
	obsInterarrival *obs.Histogram
}

// NewTable builds an empty table with the given expiry TTL.
func NewTable(ttl time.Duration) *Table {
	if ttl <= 0 {
		panic("discovery: non-positive neighbor TTL")
	}
	return &Table{ttl: ttl, m: make(map[uint32]*Neighbor)}
}

// InstrumentWith registers the table's discovery_* instruments in reg and
// starts feeding them: event counters, a live-neighbor gauge, and a
// beacon-interarrival histogram (how regularly neighbors are actually heard
// versus their nominal interval — the early-warning signal before the TTL
// failure detector fires).
func (t *Table) InstrumentWith(reg *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.obsNew = reg.Counter("discovery_neighbors_new_total",
		"neighbors first heard from")
	t.obsRefreshed = reg.Counter("discovery_beacons_refreshed_total",
		"beacons that refreshed a known neighbor")
	t.obsAddrChanged = reg.Counter("discovery_addr_changes_total",
		"neighbors that announced a new address")
	t.obsExpired = reg.Counter("discovery_neighbors_expired_total",
		"neighbors aged out by the TTL sweep")
	t.obsInterarrival = reg.Histogram("discovery_beacon_interarrival_seconds",
		"time between beacons from the same neighbor",
		obs.ExpBuckets(0.01, 2, 14))
	reg.GaugeFunc("discovery_neighbors", "current neighbor-table size",
		func() float64 { return float64(t.Len()) })
}

// Observe integrates one received beacon at the given receipt time. It
// returns what the beacon taught the table, plus the neighbor's previous
// address when that changed (so the caller can retire the stale peer).
func (t *Table) Observe(b Beacon, now time.Time) (ev Event, prevAddr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nb, ok := t.m[b.ID]
	if !ok {
		t.m[b.ID] = &Neighbor{
			ID: b.ID, Addr: b.Addr, Pos: b.Pos, Vel: b.Vel,
			Range: b.Range, Epoch: b.Epoch,
			FirstHeard: now, LastHeard: now, Beacons: 1,
		}
		if t.obsNew != nil {
			t.obsNew.Inc()
		}
		return New, ""
	}
	ev = Refreshed
	if nb.Addr != b.Addr {
		ev, prevAddr = AddrChanged, nb.Addr
	}
	if t.obsInterarrival != nil {
		if gap := now.Sub(nb.LastHeard).Seconds(); gap >= 0 {
			t.obsInterarrival.Observe(gap)
		}
	}
	switch {
	case ev == AddrChanged && t.obsAddrChanged != nil:
		t.obsAddrChanged.Inc()
	case ev == Refreshed && t.obsRefreshed != nil:
		t.obsRefreshed.Inc()
	}
	nb.Addr, nb.Pos, nb.Vel = b.Addr, b.Pos, b.Vel
	nb.Range, nb.Epoch = b.Range, b.Epoch
	nb.LastHeard = now
	nb.Beacons++
	return ev, prevAddr
}

// Sweep removes every neighbor not heard from within the TTL and returns the
// expired entries (for the caller to drop as peers). Call it on the gossip
// round, like the seen-set prune.
func (t *Table) Sweep(now time.Time) []Neighbor {
	t.mu.Lock()
	defer t.mu.Unlock()
	var expired []Neighbor
	for id, nb := range t.m {
		if now.Sub(nb.LastHeard) > t.ttl {
			expired = append(expired, *nb)
			delete(t.m, id)
			if t.obsExpired != nil {
				t.obsExpired.Inc()
			}
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].ID < expired[j].ID })
	return expired
}

// Get returns a copy of the neighbor with the given ID.
func (t *Table) Get(id uint32) (Neighbor, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nb, ok := t.m[id]
	if !ok {
		return Neighbor{}, false
	}
	return *nb, true
}

// Len returns the number of live neighbors.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Empty reports whether the table holds no neighbors — the isolation signal
// that sends the node back to its seeds.
func (t *Table) Empty() bool { return t.Len() == 0 }

// Snapshot returns a copy of every neighbor, sorted by ID for deterministic
// iteration and stable JSON output.
func (t *Table) Snapshot() []Neighbor {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Neighbor, 0, len(t.m))
	for _, nb := range t.m {
		out = append(out, *nb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
