package memnet

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantad/internal/rng"
	"instantad/internal/testutil"
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
			s := newBoard(t, limit)
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
					if data, _, ok, _ := b.TryRead(); ok {
						t.Fatalf("step %d: closed conn read %x", i, data)
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
					got, from, ok, _ := b.TryRead()
					if !ok || from != "mem:a" || string(got) != string(m.q[0]) {
						t.Fatalf("step %d: read %x from %q (ok %v), want %x", i, got, from, ok, m.q[0])
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
	s := newBoard(t, 8)
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
		got, _, ok, _ := b.TryRead()
		if !ok || len(got) != 1 || got[0] != v {
			t.Fatalf("read %v (ok %v), want [%d]", got, ok, v)
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
// to answer data or an error at random.
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
		if data, _, ok, _ := b.TryRead(); ok {
			t.Fatalf("round %d: closed conn with a backlog returned %v", i, data)
		}
	}
}

// TestQueueConcurrentWritersOneReader is the -race half: 8 writers against
// one reader waiting on its arrivals. A lost arrival would leave the reader
// asleep on a non-empty queue, so the reader must reach every delivered
// datagram; then the conn closes under fire, the counters must still account
// for every send, and nothing is read once Close has returned.
func TestQueueConcurrentWritersOneReader(t *testing.T) {
	const writers, each = 8, 2000
	s := newBoard(t, 64)
	dst, err := s.Listen("mem:sink")
	if err != nil {
		t.Fatal(err)
	}
	rx := testutil.NewReceiver(dst)
	var read atomic.Uint64
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := rx.Next(20 * time.Millisecond); err == nil {
				read.Add(1)
			}
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
			t.Fatalf("reader stopped at %d of %d delivered with %d queued: lost arrival", read.Load(), s.Stats().Delivered, backlog)
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
	if data, _, ok, _ := dst.TryRead(); ok {
		t.Errorf("read %v after Close returned", data)
	}
	close(stop)
	<-readerDone
	st := s.Stats()
	if sum := st.Delivered + st.QueueOverflow + st.NoEndpoint; sum != 2*writers*each {
		t.Errorf("%d sends accounted for, want %d: %+v", sum, 2*writers*each, st)
	}
	if read.Load() > st.Delivered {
		t.Errorf("read %d datagrams, only %d delivered", read.Load(), st.Delivered)
	}
}

// TestArrivalCallback pins the drained reading mode: the callback runs once
// at SetArrival when datagrams wait, then once per empty-to-non-empty edge,
// never while the queue stays non-empty; TryRead keeps the order and reports
// an empty or closed queue; a closed conn calls it no more.
func TestArrivalCallback(t *testing.T) {
	s, _ := New(Config{})
	a := mustListen(t, s, "")
	b := mustListen(t, s, "")
	send := func(v byte) {
		t.Helper()
		if _, err := a.WriteTo([]byte{v}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int64
	send(0)
	send(1)
	b.SetArrival(func() { calls.Add(1) })
	if c := calls.Load(); c != 1 {
		t.Fatalf("SetArrival over a backlog of 2 called back %d times, want 1", c)
	}
	send(2)
	if c := calls.Load(); c != 1 {
		t.Fatalf("a push onto a non-empty queue called back (%d calls)", c)
	}
	for want := byte(0); want < 3; want++ {
		got, from, ok, _ := b.TryRead()
		if !ok || from != a.LocalAddr() || len(got) != 1 || got[0] != want {
			t.Fatalf("TryRead = %v, %q, %v; want [%d] from %s", got, from, ok, want, a.LocalAddr())
		}
	}
	if _, _, ok, _ := b.TryRead(); ok {
		t.Fatal("TryRead on an empty queue reported a datagram")
	}
	send(3)
	send(4)
	if c := calls.Load(); c != 2 {
		t.Fatalf("%d calls after the queue went non-empty again, want 2", c)
	}
	_ = b.Close()
	if _, _, ok, _ := b.TryRead(); ok {
		t.Fatal("TryRead on a closed conn reported a datagram")
	}
	send(5)
	if c := calls.Load(); c != 2 {
		t.Fatalf("a push to a closed conn called back (%d calls)", c)
	}
}

// TestArrivalConcurrentWriters is TestQueueConcurrentWritersOneReader for a
// reader that sleeps until its callback fires and then empties the queue
// with TryRead: no wake-up is lost.
func TestArrivalConcurrentWriters(t *testing.T) {
	const writers, each = 8, 2000
	s := newBoard(t, 64)
	dst := mustListen(t, s, "mem:sink")
	kick := make(chan struct{}, 1)
	dst.SetArrival(func() {
		select {
		case kick <- struct{}{}:
		default:
		}
	})
	var read atomic.Uint64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-kick:
			case <-stop:
				return
			}
			for {
				if _, _, ok, _ := dst.TryRead(); !ok {
					break
				}
				read.Add(1)
			}
		}
	}()
	defer close(stop)
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
	deadline := time.Now().Add(5 * time.Second)
	for read.Load() != s.Stats().Delivered {
		if time.Now().After(deadline) {
			t.Fatalf("reader stopped at %d of %d delivered: lost arrival", read.Load(), s.Stats().Delivered)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Delivered+st.QueueOverflow != writers*each {
		t.Errorf("%+v", st)
	}
}
