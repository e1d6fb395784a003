package memnet

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"instantad/internal/geo"
	"instantad/internal/node/discovery"
	"instantad/internal/testutil"
)

func mustListen(t *testing.T, s *Switchboard, addr string) *Conn {
	t.Helper()
	c, err := s.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Loss: -0.1},
		{Loss: 1.1},
		{Loss: math.NaN()},
		{Loss: math.Inf(1)},
		{Loss: math.Inf(-1)},
		{Latency: -time.Second},
		{Range: -1},
		{Range: math.NaN()},
		{Range: math.Inf(1)},
		{Range: math.Inf(-1)},
		{QueueLen: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDeliveryAndAddresses(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustListen(t, s, "")
	b := mustListen(t, s, "mem:beta")
	if a.LocalAddr() == b.LocalAddr() {
		t.Fatalf("colliding addresses %q", a.LocalAddr())
	}
	if _, err := s.Listen("mem:beta"); err == nil {
		t.Error("double bind accepted")
	}
	if _, err := s.Listen("udp:nope"); err == nil {
		t.Error("foreign prefix accepted")
	}
	if _, err := s.Resolve("mem:beta"); err != nil {
		t.Errorf("resolve: %v", err)
	}
	for _, bad := range []string{"", "mem:", "127.0.0.1:7001"} {
		if _, err := s.Resolve(bad); err == nil {
			t.Errorf("resolved %q", bad)
		}
	}

	msg := []byte("hello")
	if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got, from, err := testutil.NewReceiver(b).Next(time.Second)
	if err != nil || string(got) != "hello" || from != a.LocalAddr() {
		t.Fatalf("read %q from %q, err %v", got, from, err)
	}
	if got := s.Stats().Delivered; got != 1 {
		t.Errorf("Delivered = %d", got)
	}
}

func TestWriteFaults(t *testing.T) {
	s, _ := New(Config{})
	a := mustListen(t, s, "")
	// To nobody: succeeds like UDP, counted.
	if _, err := a.WriteTo([]byte("x"), "mem:ghost"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().NoEndpoint; got != 1 {
		t.Errorf("NoEndpoint = %d", got)
	}
	// Unroutable address family and oversized payloads are local errors.
	if _, err := a.WriteTo([]byte("x"), "127.0.0.1:1"); err == nil {
		t.Error("foreign destination accepted")
	}
	if _, err := a.WriteTo(make([]byte, maxPayload+1), "mem:ghost"); err == nil {
		t.Error("oversized datagram accepted")
	}
}

func TestCloseSemantics(t *testing.T) {
	s, _ := New(Config{})
	a := mustListen(t, s, "")
	b, err := s.Listen("mem:victim")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := b.WriteTo([]byte("x"), a.LocalAddr()); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write on closed conn: %v", err)
	}
	// Sends toward the dead endpoint vanish silently.
	before := s.Stats().NoEndpoint
	if _, err := a.WriteTo([]byte("x"), "mem:victim"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().NoEndpoint; got != before+1 {
		t.Errorf("NoEndpoint %d → %d", before, got)
	}
	// The address is free again — the restart path.
	b2, err := s.Listen("mem:victim")
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	_ = b2.Close()
}

func TestSeededLossIsDeterministic(t *testing.T) {
	run := func() (delivered, lost uint64) {
		s, _ := New(Config{Loss: 0.5, Seed: 42})
		a := mustListen(t, s, "mem:a")
		b := mustListen(t, s, "mem:b")
		for i := 0; i < 200; i++ {
			if _, err := a.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		return st.Delivered, st.Lost
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, l1, d2, l2)
	}
	if d1+l1 != 200 || l1 == 0 || d1 == 0 {
		t.Errorf("loss model degenerate: delivered %d, lost %d", d1, l1)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	s, _ := New(Config{Latency: 60 * time.Millisecond})
	a := mustListen(t, s, "")
	b := mustListen(t, s, "")
	start := time.Now()
	if _, err := a.WriteTo([]byte("slow"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	rx := testutil.NewReceiver(b)
	if _, _, ok, _ := b.TryRead(); ok {
		t.Fatal("a delayed datagram was queued at once")
	}
	if _, _, err := rx.Next(time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("delivered after %v despite 60ms latency", elapsed)
	}
}

// beaconFrom encodes a beacon claiming the given position for the endpoint.
func beaconFrom(t *testing.T, id uint32, addr string, pos geo.Point) []byte {
	t.Helper()
	data, err := discovery.Beacon{ID: id, Addr: addr, Pos: pos, Range: 250}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRangePartitionFromBeaconPositions(t *testing.T) {
	s, _ := New(Config{Range: 100})
	a := mustListen(t, s, "mem:a")
	b := mustListen(t, s, "mem:b")

	// Before any beacon the medium cannot place the endpoints: it carries.
	if _, err := a.WriteTo([]byte("blind"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Delivered != 1 || st.OutOfRange != 0 {
		t.Fatalf("pre-beacon stats %+v", st)
	}

	// Beacons place a at (0,0) and b at (500,0) — beyond the 100m medium.
	if _, err := a.WriteTo(beaconFrom(t, 1, "mem:a", geo.Point{}), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(beaconFrom(t, 2, "mem:b", geo.Point{X: 500}), a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if p, ok := s.position("mem:b"); !ok || p.X != 500 {
		t.Fatalf("snooped position %v %v", p, ok)
	}
	before := s.Stats().OutOfRange
	if _, err := a.WriteTo([]byte("far"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().OutOfRange; got != before+1 {
		t.Errorf("OutOfRange %d → %d: far datagram carried", before, got)
	}

	// b moves into range; the next beacon re-places it and traffic flows.
	if _, err := b.WriteTo(beaconFrom(t, 2, "mem:b", geo.Point{X: 50}), a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	delivered := s.Stats().Delivered
	if _, err := a.WriteTo([]byte("near"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Delivered; got != delivered+1 {
		t.Errorf("Delivered %d → %d: near datagram dropped", delivered, got)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s, _ := New(Config{QueueLen: 4})
	a := mustListen(t, s, "")
	b := mustListen(t, s, "")
	for i := 0; i < 10; i++ {
		if _, err := a.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Delivered != 4 || st.QueueOverflow != 6 {
		t.Errorf("delivered %d, overflowed %d with a 4-deep queue", st.Delivered, st.QueueOverflow)
	}
}

// position returns the last position snooped from addr's beacons.
func (s *Switchboard) position(addr string) (geo.Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.eps[addr]; c != nil {
		return c.pos, c.placed
	}
	p, ok := s.pos[addr]
	return p, ok
}
