// Package transport defines the datagram abstraction the live node runs
// on. Addresses are opaque strings owned by the Transport that produced the
// conn, so the same node code runs over real UDP sockets (UDP here) and
// over the in-memory test network (internal/node/memnet) unchanged. The
// package sits below both so neither has to import the other.
package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

const (
	// MaxPayload is the largest UDP payload: 65535 minus the 8-byte UDP and
	// 20-byte IPv4 headers. Frames beyond it cannot traverse a real socket,
	// so the node's encoders refuse to build them and memnet refuses to
	// carry them.
	MaxPayload = 65507
	// recvBufLen sizes a UDP conn's receive buffer: above MaxPayload, so no
	// datagram is ever truncated.
	recvBufLen = 64 * 1024
	// queueLen is how many datagrams a UDP conn's reader hands over ahead
	// of TryRead. When they all wait, the reader waits too, and the
	// kernel's socket buffer is the queue.
	queueLen = 64
	// After a transient read fault a UDP conn's reader pauses
	// readBackoffMin, doubling per fault in a row up to readBackoffMax, so
	// a persistent socket fault cannot hot-spin a core or flood the log.
	readBackoffMin, readBackoffMax = 5 * time.Millisecond, time.Second
)

// PacketConn is the datagram socket a node runs on. It is read without
// blocking: the owner registers an arrival callback, and when it fires
// takes what has queued with TryRead.
type PacketConn interface {
	// SetArrival registers fn and starts receiving; it is called at most
	// once. From then on the conn calls fn, with no lock of its own held,
	// whenever its receive queue goes from empty to non-empty, and maybe
	// more often; fn must not block. Datagrams that waited for SetArrival
	// call fn too. A datagram that arrives after Close has returned calls
	// fn no more.
	SetArrival(fn func())
	// TryRead takes the next entry of the receive queue without blocking;
	// ok is false when the queue is empty or the conn has closed. An entry
	// is a datagram with its source address, or else a transient read fault
	// in err, which the conn survives and retries after a backoff. A
	// datagram's bytes are shared and read-only: the caller may keep the
	// slice, but never writes to it. A closed conn reads nothing.
	TryRead() (data []byte, from string, ok bool, err error)
	// WriteTo sends one datagram toward the address. The conn may keep b;
	// the caller does not write to it after the call, so one frame can go
	// to many addresses, and to their readers, as one buffer.
	WriteTo(b []byte, to string) (int, error)
	Close() error
	// LocalAddr returns the bound address in the transport's canonical form.
	LocalAddr() string
}

// Transport binds sockets and canonicalizes addresses. The canonical form
// from Resolve is the peer-identity key: two spellings of one destination
// ("localhost:7001" and "127.0.0.1:7001") must resolve equal.
type Transport interface {
	Listen(addr string) (PacketConn, error)
	Resolve(addr string) (string, error)
}

// UDP is the default Transport: real UDP sockets.
type UDP struct{}

// Listen binds a UDP socket on addr.
func (UDP) Listen(addr string) (PacketConn, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	return NewConn(conn, readBackoffMin, readBackoffMax), nil
}

// Resolve canonicalizes addr via DNS/literal resolution.
func (UDP) Resolve(addr string) (string, error) {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	return a.String(), nil
}

// Socket is the blocking datagram socket under a UDP conn: a *net.UDPConn,
// or a test's scripted socket.
type Socket interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	Close() error
	LocalAddr() net.Addr
}

// NewConn adapts a blocking socket to PacketConn. SetArrival starts its one
// reader goroutine, which hands each datagram over as a copy of its own
// size and pauses between backoffMin and backoffMax after a transient read
// fault; a closed socket ends it. UDP.Listen wraps its sockets with the
// 5 ms and 1 s bounds.
func NewConn(s Socket, backoffMin, backoffMax time.Duration) PacketConn {
	return &udpConn{
		sock: s, in: make(chan entry, queueLen), done: make(chan struct{}),
		backoffMin: backoffMin, backoffMax: backoffMax,
	}
}

// udpConn is NewConn's PacketConn: a reader goroutine feeding a small
// buffered channel that TryRead polls.
type udpConn struct {
	sock                   Socket
	in                     chan entry
	done                   chan struct{} // closed by Close
	closeOnce              sync.Once
	reader                 sync.WaitGroup
	backoffMin, backoffMax time.Duration
}

// entry is one receive-queue entry: a datagram or a read fault.
type entry struct {
	data []byte
	from string
	err  error
}

func (c *udpConn) SetArrival(fn func()) {
	c.reader.Add(1)
	go c.read(fn)
}

// read is the reader goroutine: it reads, queues and calls fn after every
// entry, until the socket or the conn closes.
func (c *udpConn) read(fn func()) {
	defer c.reader.Done()
	buf := make([]byte, recvBufLen)
	var backoff time.Duration
	for {
		n, addr, err := c.sock.ReadFromUDPAddrPort(buf)
		e := entry{err: err}
		switch {
		case err == nil:
			backoff = 0
			// Unmapped, an IPv4 source on a dual-stack socket reads as
			// UDP.Resolve spells it.
			e.data = append([]byte(nil), buf[:n]...)
			e.from = netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port()).String()
		case errors.Is(err, net.ErrClosed):
			return
		default:
			backoff = min(max(2*backoff, c.backoffMin), c.backoffMax)
			e.err = fmt.Errorf("%w (retry in %v)", err, backoff)
		}
		select {
		case c.in <- e:
		case <-c.done:
			return
		}
		fn()
		if e.err != nil {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-c.done:
				t.Stop()
				return
			}
		}
	}
}

func (c *udpConn) TryRead() ([]byte, string, bool, error) {
	select {
	case <-c.done:
		return nil, "", false, nil
	default:
	}
	select {
	case e := <-c.in:
		return e.data, e.from, true, e.err
	default:
		return nil, "", false, nil
	}
}

// WriteTo sends toward a canonical address, as UDP.Resolve and the reader
// spell them, without a resolver call; any other spelling is resolved on
// each send.
func (c *udpConn) WriteTo(b []byte, to string) (int, error) {
	ap, err := netip.ParseAddrPort(to)
	if err != nil {
		a, rerr := net.ResolveUDPAddr("udp", to)
		if rerr != nil {
			return 0, fmt.Errorf("transport: destination %q: %w", to, rerr)
		}
		ap = a.AddrPort()
	}
	// An IPv4-mapped address would not pass an IPv4 socket.
	return c.sock.WriteToUDPAddrPort(b, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
}

// Close closes the socket and waits for the reader to stop, so no reader
// goroutine or arrival call outlives it.
func (c *udpConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	err := c.sock.Close()
	c.reader.Wait()
	return err
}

func (c *udpConn) LocalAddr() string { return c.sock.LocalAddr().String() }
