package memnet

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"instantad/internal/geo"
	"instantad/internal/node/discovery"
	"instantad/internal/node/transport"
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
	if _, err := a.WriteTo(make([]byte, transport.MaxPayload+1), "mem:ghost"); err == nil {
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

func TestQueueOverflowDrops(t *testing.T) {
	s := newBoard(t, 4)
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

// newBoard builds a lossless switchboard whose receive queues hold at most
// limit datagrams.
func newBoard(t *testing.T, limit int) *Switchboard {
	t.Helper()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.queueLen = limit
	return s
}

// TestHandedOverFrameCostsNoAllocation pins that the medium reads no byte of
// what it carries and copies none: once the receiver's ring has grown, a
// HELLO beacon's WriteTo plus TryRead allocates nothing, and the receiver
// reads the very buffer the sender handed over.
func TestHandedOverFrameCostsNoAllocation(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustListen(t, s, "mem:a")
	b := mustListen(t, s, "mem:b")
	beacon, err := discovery.Beacon{ID: 1, Addr: "mem:a", Pos: geo.Point{X: 5}, Range: 250}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		if _, err := a.WriteTo(beacon, "mem:b"); err != nil {
			t.Fatal(err)
		}
		got, _, ok, _ := b.TryRead()
		if !ok {
			t.Fatal("beacon not delivered")
		}
		if &got[0] != &beacon[0] || len(got) != len(beacon) {
			t.Fatal("the receiver read a copy, not the frame handed over")
		}
	}
	send() // grows the ring
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Errorf("a beacon through the medium costs %v allocations, want 0", got)
	}
}

// BenchmarkHandedOverFrame is TestHandedOverFrameCostsNoAllocation's
// WriteTo plus TryRead, for the allocation guard.
func BenchmarkHandedOverFrame(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := s.Listen("mem:a")
	dst, _ := s.Listen("mem:b")
	defer src.Close()
	defer dst.Close()
	frame := make([]byte, 1400)
	send := func() {
		if _, err := src.WriteTo(frame, "mem:b"); err != nil {
			b.Fatal(err)
		}
		if _, _, ok, _ := dst.TryRead(); !ok {
			b.Fatal("frame not delivered")
		}
	}
	send() // grows the ring
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		send()
	}
}
