// Package memnet is a deterministic in-process datagram network for
// many-node live-protocol tests: a shared Switchboard hands out endpoints
// satisfying the node layer's PacketConn interface, and Transport() adapts
// the switchboard itself to node.Transport — so anything from a two-node test
// to a 10^4-node campaign.Fleet runs in one process with no OS sockets, no
// ports, and no kernel buffering nondeterminism. An idle endpoint costs a few
// hundred bytes: its receive queue starts empty and grows with its backlog.
//
// An endpoint is read as every PacketConn is: the owner registers an arrival
// callback (SetArrival), which the medium calls whenever the endpoint's queue
// goes from empty to non-empty, and then empties the queue with the
// non-blocking TryRead. The live node's poll driver reads memnet endpoints
// so, with no goroutine per endpoint.
//
// The switchboard models the physical medium, not a router: datagrams are
// delivered whole or not at all, loss is drawn from one seeded stream,
// latency is a fixed configurable delay, and — the radio part — delivery can
// be partitioned by geometry. The switchboard snoops HELLO beacons
// (discovery.BeaconMagic frames) crossing it to learn each endpoint's
// position, and with Range > 0 it refuses to carry a datagram between
// endpoints it knows to be farther apart than the range, exactly like the
// unit-disk radio the receiving node would apply anyway. Unknown positions
// are carried: a node that has never beaconed is not yet placeable.
package memnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"time"

	"instantad/internal/geo"
	"instantad/internal/node/discovery"
	"instantad/internal/node/transport"
	"instantad/internal/node/wire"
	"instantad/internal/rng"
)

const (
	// maxPayload is the UDP datagram payload bound, shared with the live
	// node via internal/node/wire: frames beyond it could not traverse a
	// real socket, so the in-memory medium refuses them too.
	maxPayload = wire.MaxPayload
	// defaultQueueLen is the per-endpoint receive buffer in datagrams.
	defaultQueueLen = 4096
	// addrPrefix namespaces switchboard addresses ("mem:3").
	addrPrefix = "mem:"
)

// Config parameterizes a switchboard.
type Config struct {
	// Latency delays every delivery by a fixed interval. Zero delivers
	// synchronously in the sender's goroutine — the deterministic mode.
	Latency time.Duration
	// Loss is the per-datagram drop probability, drawn from the seeded
	// stream. Zero means lossless.
	Loss float64
	// Seed drives the loss stream; the same seed replays the same faults.
	Seed uint64
	// Range, when positive, partitions delivery by geometry: datagrams
	// between endpoints whose last-beaconed positions are farther apart
	// than Range are dropped by the medium.
	Range float64
	// QueueLen is the most datagrams an endpoint's receive queue holds; a
	// full queue drops like a full kernel socket buffer. The queue starts
	// empty and doubles on demand up to this bound. Zero means 4096.
	QueueLen int
}

func (c Config) validate() error {
	// Positive form, so NaN fails: a NaN loss would run lossless and a NaN
	// range would never partition.
	if !(c.Loss >= 0 && c.Loss <= 1) {
		return fmt.Errorf("memnet: loss %v outside [0,1]", c.Loss)
	}
	if c.Latency < 0 {
		return errors.New("memnet: negative latency")
	}
	if !(c.Range >= 0 && c.Range < math.Inf(1)) {
		return fmt.Errorf("memnet: range %v must be finite and non-negative", c.Range)
	}
	if c.QueueLen < 0 {
		return errors.New("memnet: negative queue length")
	}
	return nil
}

// Stats counts what the medium did.
type Stats struct {
	Delivered      uint64 `json:"delivered"`
	DeliveredBytes uint64 `json:"delivered_bytes"` // payload bytes of delivered datagrams
	MaxDatagram    uint64 `json:"max_datagram"`    // largest datagram delivered so far
	Lost           uint64 `json:"lost"`            // dropped by the loss model
	OutOfRange     uint64 `json:"out_of_range"`    // dropped by the range partition
	NoEndpoint     uint64 `json:"no_endpoint"`     // destination not (or no longer) listening
	QueueOverflow  uint64 `json:"queue_overflow"`  // receiver buffer full
	MaxQueue       uint64 `json:"max_queue"`       // deepest backlog any endpoint reached
}

// Switchboard is the shared in-memory medium.
type Switchboard struct {
	cfg Config

	mu    sync.Mutex
	rnd   *rng.Stream
	eps   map[string]*Conn
	pos   map[string]geo.Point // positions pre-seeded for addresses not yet bound
	next  int
	stats Stats
}

// New builds an empty switchboard.
func New(cfg Config) (*Switchboard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.QueueLen == 0 {
		cfg.QueueLen = defaultQueueLen
	}
	return &Switchboard{
		cfg: cfg,
		rnd: rng.New(cfg.Seed),
		eps: make(map[string]*Conn),
		pos: make(map[string]geo.Point),
	}, nil
}

// Listen binds an endpoint. An empty addr (or a trailing-colon addr like
// "mem:") auto-assigns the next free "mem:N" address; an explicit "mem:name"
// binds exactly that address, failing if it is taken — which allows a closed
// endpoint's address to be re-bound, the restart path the isolation-recovery
// tests exercise.
func (s *Switchboard) Listen(addr string) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch addr {
	case "", addrPrefix:
		for {
			addr = fmt.Sprintf("%s%d", addrPrefix, s.next)
			s.next++
			if _, taken := s.eps[addr]; !taken {
				break
			}
		}
	default:
		if !strings.HasPrefix(addr, addrPrefix) {
			return nil, fmt.Errorf("memnet: address %q is not %q-prefixed", addr, addrPrefix)
		}
		if _, taken := s.eps[addr]; taken {
			return nil, fmt.Errorf("memnet: address %q already bound", addr)
		}
	}
	c := &Conn{sb: s, addr: addr}
	if p, ok := s.pos[addr]; ok {
		c.pos, c.placed = p, true
		delete(s.pos, addr)
	}
	s.eps[addr] = c
	return c, nil
}

// Transport adapts the switchboard to the node layer's Transport interface.
// The method sets already line up; Go just needs Listen's concrete *Conn
// result lifted to the PacketConn interface.
func (s *Switchboard) Transport() transport.Transport { return boardTransport{s} }

type boardTransport struct{ s *Switchboard }

func (t boardTransport) Listen(addr string) (transport.PacketConn, error) { return t.s.Listen(addr) }

func (t boardTransport) Resolve(addr string) (string, error) { return t.s.Resolve(addr) }

// Resolve canonicalizes an address: switchboard addresses are already
// canonical, anything else is rejected. It backs the node layer's
// Transport interface.
func (s *Switchboard) Resolve(addr string) (string, error) {
	if !strings.HasPrefix(addr, addrPrefix) || len(addr) == len(addrPrefix) {
		return "", fmt.Errorf("memnet: bad address %q", addr)
	}
	return addr, nil
}

// Stats snapshots the medium's counters.
func (s *Switchboard) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetPosition pre-seeds an endpoint's position, so a fleet wired statically
// (no HELLO beacons to snoop) still gets the medium's Range partition from
// the first datagram. Later beacons or self-describing ad frames from the
// endpoint overwrite it, exactly as for snooped positions.
func (s *Switchboard) SetPosition(addr string, p geo.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.eps[addr]; c != nil {
		c.pos, c.placed = p, true
		return
	}
	s.pos[addr] = p
}

// packet is one in-flight datagram.
type packet struct {
	data []byte
	from string
}

// Conn is one endpoint's socket. It implements the node layer's PacketConn
// interface structurally.
type Conn struct {
	sb   *Switchboard
	addr string

	// Guarded by sb.mu. The receive queue is a ring: count datagrams starting
	// at ring[head], wrapping. It is nil until the first datagram arrives and
	// doubles when full, never beyond Config.QueueLen. arrival, when set, is
	// called with no lock held each time the queue goes from empty to
	// non-empty.
	pos     geo.Point // last position set or snooped; meaningful when placed
	placed  bool
	closed  bool
	ring    []packet
	head    int
	count   int
	arrival func()
}

// minRing is the first allocation of a receive ring, in datagrams.
const minRing = 4

// LocalAddr returns the endpoint's bound address.
func (c *Conn) LocalAddr() string { return c.addr }

// SetArrival registers fn as the conn's arrival callback. The medium calls
// fn with no lock held each time the receive queue goes from empty to
// non-empty, in the sending goroutine (or the latency timer's), so fn must
// not block; the owner then empties the queue with TryRead, and a queue left
// non-empty calls fn no more. If datagrams are already queued, fn is called
// once before SetArrival returns.
func (c *Conn) SetArrival(fn func()) {
	s := c.sb
	s.mu.Lock()
	c.arrival = fn
	queued := c.count > 0
	s.mu.Unlock()
	if queued {
		fn()
	}
}

// TryRead takes the next queued datagram without blocking; ok is false when
// the queue is empty or the conn has closed, and err is always nil: the
// medium has no read faults. The slice is the private copy WriteTo made.
func (c *Conn) TryRead() (data []byte, from string, ok bool, err error) {
	s := c.sb
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed || c.count == 0 {
		return nil, "", false, nil
	}
	p := c.ring[c.head]
	c.ring[c.head] = packet{} // the reader owns the bytes now
	if c.head++; c.head == len(c.ring) {
		c.head = 0
	}
	c.count--
	return p.data, p.from, true, nil
}

// WriteTo routes one datagram through the switchboard. Like UDP, a send to
// nobody succeeds silently; only local faults (closed conn, oversized
// payload, unroutable address) error.
func (c *Conn) WriteTo(b []byte, to string) (int, error) {
	if len(b) > maxPayload {
		return 0, fmt.Errorf("memnet: message of %d bytes too long", len(b))
	}
	if !strings.HasPrefix(to, addrPrefix) {
		return 0, fmt.Errorf("memnet: bad destination %q", to)
	}
	// The medium learns geometry by listening to the traffic it carries:
	// every beacon — and every self-describing ad-layer frame (batch,
	// digest, pull) — stamps its sender's endpoint with the claimed
	// position.
	var claimed geo.Point
	var claims bool
	if len(b) > 0 && b[0] == discovery.BeaconMagic {
		if bc, err := discovery.DecodeBeacon(b); err == nil {
			claimed, claims = bc.Pos, true
		}
	} else {
		claimed, claims = wire.SenderPos(b)
	}
	// The receiver's private copy is made before the lock: an allocation can
	// stall on the garbage collector, and the lock is the whole medium's.
	p := packet{data: append([]byte(nil), b...), from: c.addr}

	s := c.sb
	s.mu.Lock()
	if c.closed {
		s.mu.Unlock()
		return 0, net.ErrClosed
	}
	if claims {
		c.pos, c.placed = claimed, true
	}
	if s.cfg.Loss > 0 && s.rnd.Bool(s.cfg.Loss) {
		s.stats.Lost++
		s.mu.Unlock()
		return len(b), nil
	}
	dst := s.eps[to]
	if s.cfg.Range > 0 && c.placed {
		var dp geo.Point
		var dok bool
		if dst != nil {
			dp, dok = dst.pos, dst.placed
		} else {
			dp, dok = s.pos[to]
		}
		if dok && c.pos.Dist(dp) > s.cfg.Range {
			s.stats.OutOfRange++
			s.mu.Unlock()
			return len(b), nil
		}
	}
	if dst == nil {
		s.stats.NoEndpoint++
		s.mu.Unlock()
		return len(b), nil
	}
	if s.cfg.Latency > 0 {
		s.mu.Unlock()
		time.AfterFunc(s.cfg.Latency, func() {
			s.mu.Lock()
			s.pushAndUnlock(dst, p)
		})
		return len(b), nil
	}
	s.pushAndUnlock(dst, p)
	return len(b), nil
}

// pushAndUnlock queues p for dst, releases s.mu, which the caller holds, and
// then — never under the lock — calls dst's arrival callback if the queue
// was empty.
func (s *Switchboard) pushAndUnlock(dst *Conn, p packet) {
	wake := s.pushLocked(dst, p)
	arrival := dst.arrival
	s.mu.Unlock()
	if wake && arrival != nil {
		arrival()
	}
}

// pushLocked appends p to dst's receive queue unless dst closed while the
// datagram was in flight (the Latency path; a closed conn is never bound
// again, a rebind is a new Conn) or its queue is full. It reports whether
// the queue went from empty to non-empty, in which case the caller calls
// dst's arrival callback after releasing s.mu.
func (s *Switchboard) pushLocked(dst *Conn, p packet) (wake bool) {
	if dst.closed {
		s.stats.NoEndpoint++
		return false
	}
	if dst.count == s.cfg.QueueLen {
		s.stats.QueueOverflow++
		return false
	}
	if dst.count == len(dst.ring) {
		dst.grow(s.cfg.QueueLen)
	}
	tail := dst.head + dst.count
	if tail >= len(dst.ring) {
		tail -= len(dst.ring)
	}
	dst.ring[tail] = p
	dst.count++
	s.stats.Delivered++
	s.stats.DeliveredBytes += uint64(len(p.data))
	if uint64(len(p.data)) > s.stats.MaxDatagram {
		s.stats.MaxDatagram = uint64(len(p.data))
	}
	if uint64(dst.count) > s.stats.MaxQueue {
		s.stats.MaxQueue = uint64(dst.count)
	}
	return dst.count == 1
}

// grow doubles a full ring (bounded by limit), unwrapping it so the queue
// starts at slot 0 of the new one.
func (c *Conn) grow(limit int) {
	size := 2 * len(c.ring)
	if size < minRing {
		size = minRing
	}
	if size > limit {
		size = limit
	}
	ring := make([]packet, size)
	n := copy(ring, c.ring[c.head:])
	copy(ring[n:], c.ring[:c.head])
	c.ring, c.head = ring, 0
}

// Close unbinds the endpoint; later reads find nothing, and datagrams queued
// for or in flight toward it are dropped like packets to a dead port. Close
// drops the arrival callback, though a push that queued its datagram before
// Close may still be calling it.
func (c *Conn) Close() error {
	s := c.sb
	s.mu.Lock()
	if c.closed {
		s.mu.Unlock()
		return nil
	}
	c.closed = true
	c.ring, c.head, c.count, c.arrival = nil, 0, 0, nil
	delete(s.eps, c.addr)
	s.mu.Unlock()
	return nil
}
