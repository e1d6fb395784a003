package node

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/geo"
)

// readResult is one scripted outcome for fakeConn.ReadFrom.
type readResult struct {
	data []byte
	err  error
}

// fakeConn is a scripted PacketConn: reads pop queued results and block when
// the queue is empty; writes always succeed. It lets tests drive the read
// loop through exact error sequences without a real socket.
type fakeConn struct {
	reads  chan readResult
	closed chan struct{}
	once   sync.Once
}

func newFakeConn() *fakeConn {
	return &fakeConn{reads: make(chan readResult, 32), closed: make(chan struct{})}
}

func (c *fakeConn) ReadFrom() ([]byte, string, error) {
	select {
	case r := <-c.reads:
		return r.data, "127.0.0.1:1", r.err
	case <-c.closed:
		return nil, "", net.ErrClosed
	}
}

// inject queues one datagram for the reader, copying it as a socket would.
func (c *fakeConn) inject(b []byte) {
	c.reads <- readResult{data: append([]byte(nil), b...)}
}

func (c *fakeConn) WriteTo(b []byte, to string) (int, error) { return len(b), nil }

func (c *fakeConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *fakeConn) LocalAddr() string { return "127.0.0.1:1" }

// newFakeNode builds a node whose socket is a fakeConn (the real one is
// closed immediately) with fast read backoff for test speed.
func newFakeNode(t *testing.T, id uint32) (*Node, *fakeConn) {
	t.Helper()
	n, err := New(testConfig(id, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	_ = n.conn.Close()
	fc := newFakeConn()
	n.conn = fc
	n.readBackoffMin = 10 * time.Millisecond
	n.readBackoffMax = 40 * time.Millisecond
	t.Cleanup(func() { _ = n.Close() })
	return n, fc
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
// followed by a valid datagram: the loop must survive the burst, count every
// error, sleep an exponentially growing delay between attempts (no hot
// spin), and then process traffic normally.
func TestReadLoopTransientBackoff(t *testing.T) {
	n, fc := newFakeNode(t, 1)
	transient := errors.New("recvfrom: resource temporarily wedged")
	const bursts = 4
	for i := 0; i < bursts; i++ {
		fc.reads <- readResult{err: transient}
	}
	fc.inject(validDatagram(t, 42))
	start := time.Now()
	n.Start()
	if !waitFor(t, 3*time.Second, func() bool { return n.Stats().Received == 1 }) {
		t.Fatalf("valid datagram never processed after error burst; stats %+v", n.Stats())
	}
	// Backoff floors: 10+20+40+40 = 110ms minimum before the valid read.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("error burst consumed in %v: read loop is not backing off", elapsed)
	}
	if got := n.Stats().ReadErrors; got != bursts {
		t.Errorf("ReadErrors = %d, want %d", got, bursts)
	}
}

// TestReadLoopBackoffResets checks a successful read resets the backoff
// window so an isolated later error starts again from the minimum delay.
func TestReadLoopBackoffResets(t *testing.T) {
	n, fc := newFakeNode(t, 2)
	transient := errors.New("transient")
	fc.reads <- readResult{err: transient}
	fc.reads <- readResult{err: transient}
	fc.inject(validDatagram(t, 42))
	n.Start()
	if !waitFor(t, 3*time.Second, func() bool { return n.Stats().Received == 1 }) {
		t.Fatal("first valid datagram never processed")
	}
	// One more error then another valid read: if the backoff had kept
	// doubling it would still be ≤ max (40ms) — mostly this asserts the
	// loop keeps serving traffic interleaved with faults.
	fc.reads <- readResult{err: transient}
	fc.inject(validDatagram(t, 43))
	if !waitFor(t, 3*time.Second, func() bool { return n.Stats().Received == 2 }) {
		t.Fatal("valid datagram after second fault never processed")
	}
	if got := n.Stats().ReadErrors; got != 3 {
		t.Errorf("ReadErrors = %d, want 3", got)
	}
}

// TestReadLoopFatalClosed scripts net.ErrClosed: the loop must classify it
// as fatal and exit immediately — not count it, not back off, not retry.
func TestReadLoopFatalClosed(t *testing.T) {
	n, fc := newFakeNode(t, 3)
	n.Start()
	fc.reads <- readResult{err: net.ErrClosed}
	// The loop exited: a queued read result stays unconsumed.
	fc.inject(validDatagram(t, 42))
	time.Sleep(150 * time.Millisecond)
	if len(fc.reads) != 1 {
		t.Error("read loop kept reading after a closed-socket error")
	}
	if got := n.Stats().ReadErrors; got != 0 {
		t.Errorf("fatal close counted as transient: ReadErrors = %d", got)
	}
	if n.Stats().Received != 0 {
		t.Error("datagram processed after fatal close")
	}
}
