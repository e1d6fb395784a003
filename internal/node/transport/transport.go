// Package transport defines the datagram abstraction the live node runs
// on. Addresses are opaque strings owned by the Transport that produced the
// conn, so the same node code runs over real UDP sockets (UDP here) and
// over the in-memory test network (internal/node/memnet) unchanged. The
// package sits below both so neither has to import the other.
package transport

import (
	"fmt"
	"net"
	"sync"
)

// recvBufLen sizes a UDP conn's receive buffer: above the 65507-byte payload
// bound, so no datagram is ever truncated.
const recvBufLen = 64 * 1024

// PacketConn is the datagram socket a node runs on.
type PacketConn interface {
	// ReadFrom blocks for the next datagram and hands it over together with
	// its source address. The slice belongs to the conn and is valid until
	// the next ReadFrom on it, so a conn has one reader at a time and a
	// caller that keeps the bytes copies them. A closed conn returns an
	// error satisfying errors.Is(err, net.ErrClosed).
	ReadFrom() (data []byte, from string, err error)
	// WriteTo sends one datagram toward the address.
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
	return &udpPacketConn{
		conn:  conn,
		buf:   make([]byte, recvBufLen),
		dests: make(map[string]*net.UDPAddr),
	}, nil
}

// Resolve canonicalizes addr via DNS/literal resolution.
func (UDP) Resolve(addr string) (string, error) {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	return a.String(), nil
}

// udpPacketConn adapts *net.UDPConn to string addresses. Destinations are
// resolved once and cached: the node's peer set is small and stable, so the
// hot send path costs one map hit, not a resolver call.
type udpPacketConn struct {
	conn *net.UDPConn
	// buf is the one receive buffer: filled by the single reader, handed
	// out by ReadFrom.
	buf []byte

	mu    sync.Mutex
	dests map[string]*net.UDPAddr
}

func (c *udpPacketConn) ReadFrom() ([]byte, string, error) {
	n, addr, err := c.conn.ReadFromUDP(c.buf)
	if err != nil {
		return nil, "", err
	}
	return c.buf[:n], addr.String(), nil
}

func (c *udpPacketConn) WriteTo(b []byte, to string) (int, error) {
	c.mu.Lock()
	addr := c.dests[to]
	c.mu.Unlock()
	if addr == nil {
		var err error
		addr, err = net.ResolveUDPAddr("udp", to)
		if err != nil {
			return 0, fmt.Errorf("transport: destination %q: %w", to, err)
		}
		c.mu.Lock()
		c.dests[to] = addr
		c.mu.Unlock()
	}
	return c.conn.WriteToUDP(b, addr)
}

func (c *udpPacketConn) Close() error { return c.conn.Close() }

func (c *udpPacketConn) LocalAddr() string { return c.conn.LocalAddr().String() }
