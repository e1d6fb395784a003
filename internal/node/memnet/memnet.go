// Package memnet is a deterministic in-process datagram network for
// many-node live-protocol tests: a shared Switchboard hands out endpoints
// satisfying transport.PacketConn, and Transport() adapts the switchboard
// itself to transport.Transport — so anything from a two-node test
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
// The switchboard carries datagrams, not frames: it reads no byte of what it
// carries, and copies none. A datagram is the buffer its sender handed to
// WriteTo, shared read-only by every endpoint it is sent to, as one radio
// transmission is heard by every peer in range. It is delivered whole, at
// once and in the sender's goroutine, or not at all: it is lost by one seeded stream, sent to an
// address nobody has bound, or refused by a full receive queue. Who hears
// whom is the receiving node's business: its virtual radio (node.Config.Range)
// drops frames from senders out of range, as it does over UDP.
package memnet

import (
	"fmt"
	"net"
	"strings"
	"sync"

	"instantad/internal/node/transport"
	"instantad/internal/rng"
)

const (
	// queueLen is the most datagrams an endpoint's receive queue holds; a
	// full queue drops like a full kernel socket buffer. The queue starts
	// empty and doubles on demand up to this bound.
	queueLen = 4096
	// addrPrefix namespaces switchboard addresses ("mem:3").
	addrPrefix = "mem:"
)

// Config parameterizes a switchboard.
type Config struct {
	// Loss is the per-datagram drop probability, drawn from the seeded
	// stream. Zero means lossless.
	Loss float64
	// Seed drives the loss stream; the same seed replays the same faults.
	Seed uint64
}

func (c Config) validate() error {
	// Positive form, so NaN fails: a NaN loss would run lossless.
	if !(c.Loss >= 0 && c.Loss <= 1) {
		return fmt.Errorf("memnet: loss %v outside [0,1]", c.Loss)
	}
	return nil
}

// Stats counts what the medium did.
type Stats struct {
	Delivered      uint64 `json:"delivered"`
	DeliveredBytes uint64 `json:"delivered_bytes"` // payload bytes of delivered datagrams
	MaxDatagram    uint64 `json:"max_datagram"`    // largest datagram delivered so far
	Lost           uint64 `json:"lost"`            // dropped by the loss model
	NoEndpoint     uint64 `json:"no_endpoint"`     // destination not (or no longer) listening
	QueueOverflow  uint64 `json:"queue_overflow"`  // receiver buffer full
	MaxQueue       uint64 `json:"max_queue"`       // deepest backlog any endpoint reached
}

// Switchboard is the shared in-memory medium.
type Switchboard struct {
	cfg      Config
	queueLen int // the constant queueLen; memnet's tests set smaller bounds

	mu    sync.Mutex
	rnd   *rng.Stream
	eps   map[string]*Conn
	next  int
	stats Stats
}

// New builds an empty switchboard.
func New(cfg Config) (*Switchboard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Switchboard{
		cfg:      cfg,
		queueLen: queueLen,
		rnd:      rng.New(cfg.Seed),
		eps:      make(map[string]*Conn),
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
	s.eps[addr] = c
	return c, nil
}

// Transport adapts the switchboard to transport.Transport.
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

// packet is one queued datagram.
type packet struct {
	data []byte
	from string
}

// Conn is one endpoint's socket. It implements transport.PacketConn
// structurally.
type Conn struct {
	sb   *Switchboard
	addr string

	// Guarded by sb.mu. The receive queue is a ring: count datagrams starting
	// at ring[head], wrapping. It is nil until the first datagram arrives and
	// doubles when full, never beyond queueLen. arrival, when set, is called
	// with no lock held each time the queue goes from empty to non-empty.
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
// non-empty, in the sending goroutine, so fn must not block; the owner then
// empties the queue with TryRead, and a queue left non-empty calls fn no
// more. If datagrams are already queued, fn is called once before
// SetArrival returns.
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
// medium has no read faults. The slice is the very buffer the sender handed
// to WriteTo, which every receiver of that frame shares: read it, never
// write it.
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

// WriteTo routes one datagram through the switchboard. The receiver's queue
// takes b itself, not a copy, so the caller must not write to b after the
// call; sending one frame to many addresses queues one buffer for all of
// them. Like UDP, a send to nobody succeeds silently; only local faults
// (closed conn, oversized payload, unroutable address) error.
func (c *Conn) WriteTo(b []byte, to string) (int, error) {
	if len(b) > transport.MaxPayload {
		return 0, fmt.Errorf("memnet: message of %d bytes too long", len(b))
	}
	if !strings.HasPrefix(to, addrPrefix) {
		return 0, fmt.Errorf("memnet: bad destination %q", to)
	}
	p := packet{data: b, from: c.addr} // the frame itself: every receiver reads the one buffer
	s := c.sb
	s.mu.Lock()
	if c.closed {
		s.mu.Unlock()
		return 0, net.ErrClosed
	}
	if s.cfg.Loss > 0 && s.rnd.Bool(s.cfg.Loss) {
		s.stats.Lost++
		s.mu.Unlock()
		return len(b), nil
	}
	dst := s.eps[to]
	if dst == nil {
		s.stats.NoEndpoint++
		s.mu.Unlock()
		return len(b), nil
	}
	wake := s.pushLocked(dst, p)
	arrival := dst.arrival
	s.mu.Unlock()
	if wake && arrival != nil {
		arrival()
	}
	return len(b), nil
}

// pushLocked appends p to dst's receive queue unless the queue is full. It
// reports whether the queue went from empty to non-empty, in which case the
// caller calls dst's arrival callback after releasing s.mu.
func (s *Switchboard) pushLocked(dst *Conn, p packet) (wake bool) {
	if dst.count == s.queueLen {
		s.stats.QueueOverflow++
		return false
	}
	if dst.count == len(dst.ring) {
		dst.grow(s.queueLen)
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
// for it are dropped like packets to a dead port. Close
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
