package memnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

// queueModel is the plain-slice reference the ring is driven against: what
// one endpoint's queue must hold and what the medium must have counted.
type queueModel struct {
	limit int
	bound bool // the receiving address currently has a conn
	q     [][]byte
	stats Stats
}

func (m *queueModel) push(b []byte) {
	switch {
	case !m.bound:
		m.stats.NoEndpoint++
	case len(m.q) == m.limit:
		m.stats.QueueOverflow++
	default:
		m.q = append(m.q, b)
		m.stats.Delivered++
		m.stats.DeliveredBytes += uint64(len(b))
		if uint64(len(b)) > m.stats.MaxDatagram {
			m.stats.MaxDatagram = uint64(len(b))
		}
		if uint64(len(m.q)) > m.stats.MaxQueue {
			m.stats.MaxQueue = uint64(len(m.q))
		}
	}
}

// TestQueueAgainstModel drives the receive ring with random push / pop /
// close / rebind against queueModel: same delivered order, same counters
// after every step, and a closed conn keeps nothing.
func TestQueueAgainstModel(t *testing.T) {
	for _, limit := range []int{1, 4, 8, 4096} {
		t.Run(fmt.Sprintf("QueueLen=%d", limit), func(t *testing.T) {
			s, err := New(Config{QueueLen: limit})
			if err != nil {
				t.Fatal(err)
			}
			a := mustListen(t, s, "mem:a")
			b := mustListen(t, s, "mem:b")
			m := &queueModel{limit: limit, bound: true}
			rnd := rng.New(uint64(limit))
			steps := 4000
			if limit > 8 {
				steps = 30000 // long enough to fill 4096 and drain it again
			}
			pushBias := 0.75
			for i := 0; i < steps; i++ {
				if i%(steps/3) == 0 && i > 0 {
					pushBias = 1 - pushBias // fill for a third, drain, fill again
				}
				// Closes come while draining or on a full queue, so the long
				// fill toward 4096 is not cut short every time.
				mayClose := m.bound && (pushBias < 0.5 || len(m.q) == limit)
				switch r := rnd.Float64(); {
				case r < 0.002 && mayClose:
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					m.bound, m.q = false, nil
					if b.ring != nil || b.count != 0 || b.head != 0 {
						t.Fatalf("step %d: closed conn retains ring len %d, count %d", i, len(b.ring), b.count)
					}
					if _, _, err := b.ReadFrom(); !errors.Is(err, net.ErrClosed) {
						t.Fatalf("step %d: read on closed conn: %v", i, err)
					}
				case r < 0.01 && !m.bound:
					b = mustListen(t, s, "mem:b")
					m.bound = true
				case r < pushBias:
					msg := binary.LittleEndian.AppendUint32(nil, uint32(i))
					msg = append(msg, make([]byte, rnd.Intn(40))...)
					if _, err := a.WriteTo(msg, "mem:b"); err != nil {
						t.Fatal(err)
					}
					m.push(msg)
				case len(m.q) > 0:
					got, from, err := b.ReadFrom()
					if err != nil || from != "mem:a" || string(got) != string(m.q[0]) {
						t.Fatalf("step %d: read %x from %q (err %v), want %x", i, got, from, err, m.q[0])
					}
					m.q = m.q[1:]
				}
				if got := s.Stats(); got != m.stats {
					t.Fatalf("step %d: stats %+v, model %+v", i, got, m.stats)
				}
				if m.bound && (b.count != len(m.q) || len(b.ring) > limit) {
					t.Fatalf("step %d: ring holds %d of %d slots, model %d, limit %d", i, b.count, len(b.ring), len(m.q), limit)
				}
			}
			if m.stats.MaxQueue != uint64(limit) {
				t.Errorf("the walk never filled the queue: MaxQueue %d", m.stats.MaxQueue)
			}
		})
	}
}

// TestQueueGrowthUnwraps forces the one delicate step: a ring that is full
// and wrapped (head in the middle) doubles, and order survives.
func TestQueueGrowthUnwraps(t *testing.T) {
	s, _ := New(Config{QueueLen: 8})
	a := mustListen(t, s, "")
	b := mustListen(t, s, "")
	send := func(v byte) {
		t.Helper()
		if _, err := a.WriteTo([]byte{v}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	want := func(v byte) {
		t.Helper()
		got, _, err := b.ReadFrom()
		if err != nil || len(got) != 1 || got[0] != v {
			t.Fatalf("read %v (err %v), want [%d]", got, err, v)
		}
	}
	if b.ring != nil {
		t.Fatalf("idle conn holds a %d-slot ring", len(b.ring))
	}
	for v := byte(0); v < minRing; v++ {
		send(v)
	}
	want(0)
	want(1)
	send(4)
	send(5) // full again, and wrapped: slots hold 4 5 2 3
	if len(b.ring) != minRing || b.head != 2 || b.count != minRing {
		t.Fatalf("ring len %d head %d count %d before growth", len(b.ring), b.head, b.count)
	}
	send(6) // grows
	if len(b.ring) != 2*minRing || b.head != 0 {
		t.Fatalf("ring len %d head %d after growth", len(b.ring), b.head)
	}
	for v := byte(2); v <= 6; v++ {
		want(v)
	}
	if st := s.Stats(); st.Delivered != 7 || st.QueueOverflow != 0 || st.MaxQueue != 5 {
		t.Errorf("stats %+v", st)
	}
}

// TestClosedConnWithBacklogAlwaysErrors pins the close contract: whatever
// was queued goes with the Close, every time — the channel-based queue used
// to answer data or net.ErrClosed at random — and a datagram still in
// flight toward the conn (Latency) is counted NoEndpoint when it lands.
func TestClosedConnWithBacklogAlwaysErrors(t *testing.T) {
	s, _ := New(Config{})
	a := mustListen(t, s, "")
	for i := 0; i < 200; i++ {
		b := mustListen(t, s, "mem:victim")
		for j := 0; j < 3; j++ {
			if _, err := a.WriteTo([]byte{byte(j)}, "mem:victim"); err != nil {
				t.Fatal(err)
			}
		}
		_ = b.Close()
		if data, _, err := b.ReadFrom(); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("round %d: closed conn with a backlog returned %v, %v", i, data, err)
		}
	}

	slow, _ := New(Config{Latency: 30 * time.Millisecond})
	c := mustListen(t, slow, "")
	d := mustListen(t, slow, "mem:victim")
	if _, err := c.WriteTo([]byte("late"), "mem:victim"); err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	d2 := mustListen(t, slow, "mem:victim") // a rebind is a different conn
	deadline := time.Now().Add(2 * time.Second)
	for slow.Stats().NoEndpoint == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := slow.Stats(); st.NoEndpoint != 1 || st.Delivered != 0 || d2.count != 0 {
		t.Errorf("in-flight datagram toward a closed conn: %+v, rebound conn holds %d", st, d2.count)
	}
}

// TestPositionFollowsTheEndpoint checks that moving positions from the
// address map onto the conn changed no position answer: seeded before
// Listen, overwritten after, gone with Close, re-seedable before a rebind.
func TestPositionFollowsTheEndpoint(t *testing.T) {
	s, _ := New(Config{})
	at := func(want geo.Point, known bool) {
		t.Helper()
		if p, ok := s.position("mem:x"); ok != known || p != want {
			t.Fatalf("Position = %v %v, want %v %v", p, ok, want, known)
		}
	}
	at(geo.Point{}, false)
	s.SetPosition("mem:x", geo.Point{X: 1})
	at(geo.Point{X: 1}, true)
	c := mustListen(t, s, "mem:x")
	at(geo.Point{X: 1}, true)
	if len(s.pos) != 0 {
		t.Errorf("a bound endpoint's position stayed in the address map: %v", s.pos)
	}
	s.SetPosition("mem:x", geo.Point{X: 2})
	at(geo.Point{X: 2}, true)
	_ = c.Close()
	at(geo.Point{}, false)
	c = mustListen(t, s, "mem:x")
	at(geo.Point{}, false)
	_ = c.Close()
	s.SetPosition("mem:x", geo.Point{X: 3})
	at(geo.Point{X: 3}, true)
	mustListen(t, s, "mem:x")
	at(geo.Point{X: 3}, true)
}

// TestQueueConcurrentWritersOneReader is the -race half: 8 writers against
// one reader. A lost wake-up would leave the reader asleep on a non-empty
// queue, so the reader must reach every delivered datagram; then the conn
// closes under fire and the counters must still account for every send.
func TestQueueConcurrentWritersOneReader(t *testing.T) {
	const writers, each = 8, 2000
	s, _ := New(Config{QueueLen: 64})
	dst, err := s.Listen("mem:sink")
	if err != nil {
		t.Fatal(err)
	}
	var read atomic.Uint64
	readerDone := make(chan error, 1)
	go func() {
		for {
			if _, _, err := dst.ReadFrom(); err != nil {
				readerDone <- err
				return
			}
			read.Add(1)
		}
	}()
	blast := func() {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			src := mustListen(t, s, "")
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := src.WriteTo([]byte{byte(i)}, "mem:sink"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	blast()
	deadline := time.Now().Add(5 * time.Second)
	for read.Load() != s.Stats().Delivered {
		if time.Now().After(deadline) {
			s.mu.Lock()
			backlog := dst.count
			s.mu.Unlock()
			t.Fatalf("reader stopped at %d of %d delivered with %d queued: lost wake-up", read.Load(), s.Stats().Delivered, backlog)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Delivered+st.QueueOverflow != writers*each || st.MaxQueue > 64 {
		t.Errorf("first blast: %+v", st)
	}

	closed := make(chan struct{})
	closeAt := read.Load() + 32 // under a full queue, so surely reached
	go func() {
		defer close(closed)
		for read.Load() < closeAt {
			time.Sleep(50 * time.Microsecond)
		}
		_ = dst.Close()
	}()
	blast()
	<-closed
	select {
	case err := <-readerDone:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("reader ended with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader still blocked after Close")
	}
	st := s.Stats()
	if sum := st.Delivered + st.QueueOverflow + st.NoEndpoint; sum != 2*writers*each {
		t.Errorf("%d sends accounted for, want %d: %+v", sum, 2*writers*each, st)
	}
	if read.Load() > st.Delivered {
		t.Errorf("read %d datagrams, only %d delivered", read.Load(), st.Delivered)
	}
}

// TestCloseReleasesEveryBlockedReader: the wake channel holds one token, so
// Close must not rely on it to release readers.
func TestCloseReleasesEveryBlockedReader(t *testing.T) {
	s, _ := New(Config{})
	c, err := s.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := c.ReadFrom()
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	_ = c.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, net.ErrClosed) {
				t.Errorf("blocked reader returned %v", err)
			}
		case <-time.After(time.Second):
			t.Fatal("a blocked reader was never released")
		}
	}
}
