package node

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/node/transport"
)

// readResult is one scripted outcome of a fakeSocket read.
type readResult struct {
	data []byte
	err  error
}

// fakeAddr is where every fakeSocket datagram comes from.
var fakeAddr = netip.MustParseAddrPort("127.0.0.1:1")

// fakeSocket is a scripted transport.Socket: reads pop queued results and
// block when the queue is empty; writes always succeed. Under
// transport.NewConn it drives a UDP conn's reader through exact fault
// sequences without a real socket.
type fakeSocket struct {
	reads  chan readResult
	closed chan struct{}
	once   sync.Once
}

func newFakeSocket() *fakeSocket {
	return &fakeSocket{reads: make(chan readResult, 32), closed: make(chan struct{})}
}

func (s *fakeSocket) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	select {
	case r := <-s.reads:
		return copy(b, r.data), fakeAddr, r.err
	case <-s.closed:
		return 0, netip.AddrPort{}, net.ErrClosed
	}
}

// inject queues one datagram for the reader.
func (s *fakeSocket) inject(b []byte) {
	s.reads <- readResult{data: append([]byte(nil), b...)}
}

func (s *fakeSocket) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	return len(b), nil
}

func (s *fakeSocket) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

func (s *fakeSocket) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(fakeAddr) }

// newFakeNode builds a node over a conn wrapping a fakeSocket (the real
// socket is closed at once), with fast read backoff for test speed.
func newFakeNode(t testing.TB, cfg Config) (*Node, *fakeSocket) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.conn.Close()
	fs := newFakeSocket()
	n.conn = transport.NewConn(fs, 10*time.Millisecond, 40*time.Millisecond)
	t.Cleanup(func() { _ = n.Close() })
	return n, fs
}

// validDatagram encodes one in-range batch of one ad toward the node.
func validDatagram(t *testing.T, issuer uint32) []byte {
	t.Helper()
	return batchDatagram(t, issuer, geo.Point{X: 10}, &ads.Advertisement{
		ID: ads.ID{Issuer: issuer, Seq: 0}, Origin: geo.Point{X: 10},
		IssuedAt: 0, R: 400, D: 9000, Category: "petrol",
	})
}

// TestReadLoopTransientBackoff scripts a burst of transient read errors
// followed by a valid datagram: the conn's reader must survive the burst
// and sleep an exponentially growing delay between attempts (no hot spin),
// the node's drain must count every error, and then traffic flows normally.
func TestReadLoopTransientBackoff(t *testing.T) {
	n, fs := newFakeNode(t, testConfig(1, geo.Point{}))
	transient := errors.New("recvfrom: resource temporarily wedged")
	const bursts = 4
	for i := 0; i < bursts; i++ {
		fs.reads <- readResult{err: transient}
	}
	fs.inject(validDatagram(t, 42))
	start := time.Now()
	n.Start()
	if !waitFor(t, 3*time.Second, func() bool { return n.Stats().Received == 1 }) {
		t.Fatalf("valid datagram never processed after error burst; stats %+v", n.Stats())
	}
	// Backoff floors: 10+20+40+40 = 110ms minimum before the valid read.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("error burst consumed in %v: the reader is not backing off", elapsed)
	}
	if got := n.Stats().ReadErrors; got != bursts {
		t.Errorf("ReadErrors = %d, want %d", got, bursts)
	}
}

// TestReadLoopBackoffResets checks a successful read resets the backoff
// window so an isolated later error starts again from the minimum delay.
func TestReadLoopBackoffResets(t *testing.T) {
	n, fs := newFakeNode(t, testConfig(2, geo.Point{}))
	transient := errors.New("transient")
	fs.reads <- readResult{err: transient}
	fs.reads <- readResult{err: transient}
	fs.inject(validDatagram(t, 42))
	n.Start()
	if !waitFor(t, 3*time.Second, func() bool { return n.Stats().Received == 1 }) {
		t.Fatal("first valid datagram never processed")
	}
	// One more error then another valid read: if the backoff had kept
	// doubling it would still be ≤ max (40ms) — mostly this asserts the
	// reader keeps serving traffic interleaved with faults.
	fs.reads <- readResult{err: transient}
	fs.inject(validDatagram(t, 43))
	if !waitFor(t, 3*time.Second, func() bool { return n.Stats().Received == 2 }) {
		t.Fatal("valid datagram after second fault never processed")
	}
	if got := n.Stats().ReadErrors; got != 3 {
		t.Errorf("ReadErrors = %d, want 3", got)
	}
}

// TestReadLoopFatalClosed scripts net.ErrClosed: the reader must classify
// it as fatal and stop at once — not hand it over, not back off, not retry.
func TestReadLoopFatalClosed(t *testing.T) {
	n, fs := newFakeNode(t, testConfig(3, geo.Point{}))
	n.Start()
	fs.reads <- readResult{err: net.ErrClosed}
	// The reader stopped: a queued read result stays unconsumed.
	fs.inject(validDatagram(t, 42))
	time.Sleep(150 * time.Millisecond)
	if len(fs.reads) != 1 {
		t.Error("the reader kept reading after a closed-socket error")
	}
	if got := n.Stats().ReadErrors; got != 0 {
		t.Errorf("fatal close counted as transient: ReadErrors = %d", got)
	}
	if n.Stats().Received != 0 {
		t.Error("datagram processed after fatal close")
	}
}
