package node

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/memnet"
	"instantad/internal/trace"
)

// lateWatch counts the observer calls and datagram writes a node makes after
// its Close returned.
type lateWatch struct {
	core.BaseObserver
	closed atomic.Bool
	late   atomic.Int64
}

func (w *lateWatch) hit() {
	if w.closed.Load() {
		w.late.Add(1)
	}
}

func (w *lateWatch) OnIssue(int, *ads.Advertisement, float64)        { w.hit() }
func (w *lateWatch) OnBroadcast(int, ads.ID, int, float64)           { w.hit() }
func (w *lateWatch) OnFirstReceive(int, *ads.Advertisement, float64) { w.hit() }
func (w *lateWatch) OnDuplicate(int, ads.ID, float64)                { w.hit() }
func (w *lateWatch) OnExpire(int, ads.ID, float64)                   { w.hit() }
func (w *lateWatch) OnEvict(int, ads.ID, float64)                    { w.hit() }
func (w *lateWatch) OnMembership(trace.Event)                        { w.hit() }

// watchConn counts the node's writes on its lateWatch.
type watchConn struct {
	PacketConn
	w *lateWatch
}

func (c watchConn) WriteTo(b []byte, to string) (int, error) {
	c.w.hit()
	return c.PacketConn.WriteTo(b, to)
}

// watchedNode builds a memnet node at round time rt that beacons every 30 ms
// and sends to sink, with an ad cached, so each of its polls and beacons
// sends. The caller starts and closes it.
func watchedNode(t *testing.T, sb *memnet.Switchboard, id uint32, rt time.Duration, sink string) (*Node, *lateWatch) {
	t.Helper()
	w := &lateWatch{}
	cfg := testConfig(id, geo.Point{})
	cfg.ListenAddr, cfg.Transport, cfg.Events = "mem:", sb.Transport(), w
	cfg.RoundTime, cfg.BeaconInterval = rt, 30*time.Millisecond
	cfg.Peers = []string{sink}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.conn = watchConn{n.conn, w}
	if _, err := n.Issue(core.AdSpec{R: 1000, D: 60}); err != nil {
		t.Fatal(err)
	}
	return n, w
}

// TestCloseNeverWaitsOutAPoll pins Close's contract with the poll driver:
// it takes the node's jobs off its shard and waits only for a poll already
// running, so it returns within 50 ms at a round time of an hour as at
// 100 ms, started or not, and no observer call and no send follow it. Then
// 200 nodes polling every 4 ms close concurrently (run it under -race).
func TestCloseNeverWaitsOutAPoll(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := sb.Transport().Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	const bound, after = 50 * time.Millisecond, 100 * time.Millisecond // after: past a poll and a beacon
	for _, rt := range []time.Duration{time.Hour, 100 * time.Millisecond} {
		for _, start := range []bool{true, false} {
			t.Run(fmt.Sprintf("round=%v/started=%v", rt, start), func(t *testing.T) {
				n, w := watchedNode(t, sb, 1, rt, sink.LocalAddr())
				if start {
					n.Start()
				}
				time.Sleep(after)
				began := time.Now()
				_ = n.Close()
				took := time.Since(began)
				w.closed.Store(true)
				if took > bound {
					t.Errorf("Close took %v, bound %v", took, bound)
				}
				time.Sleep(after)
				if late := w.late.Load(); late != 0 {
					t.Errorf("%d observer calls or sends after Close returned", late)
				}
				if start && n.Stats().BeaconsSent == 0 {
					t.Error("the started node never beaconed: its jobs did not run")
				}
			})
		}
	}
	t.Run("concurrent", func(t *testing.T) {
		const nodes = 200
		ns := make([]*Node, nodes)
		ws := make([]*lateWatch, nodes)
		for i := range ns {
			ns[i], ws[i] = watchedNode(t, sb, uint32(i+2), 20*time.Millisecond, sink.LocalAddr())
			ns[i].Start()
		}
		time.Sleep(after)
		var wg sync.WaitGroup
		for i := range ns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_ = ns[i].Close()
				ws[i].closed.Store(true)
			}(i)
		}
		wg.Wait()
		time.Sleep(after)
		for i, w := range ws {
			if late := w.late.Load(); late != 0 {
				t.Errorf("node %d: %d observer calls or sends after Close returned", i, late)
			}
		}
	})
}

// TestDriverGoroutines counts what a started node costs in goroutines: its
// reader, plus at most GOMAXPROCS shard goroutines for the whole fleet —
// not a ticker goroutine for its poll and another for its beacon. Once every
// node has closed, no shard holds one of their jobs and the count settles
// back: a shard left running is a leak.
func TestDriverGoroutines(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 100
	base := runtime.NumGoroutine()
	ns := make([]*Node, nodes)
	for i := range ns {
		cfg := discoveryConfig(sb, uint32(i+1), geo.Point{})
		cfg.RoundTime = time.Hour // a poll job that lingered would hold its shard for 12 minutes
		if ns[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ns[i].Close() })
		ns[i].Start()
	}
	time.Sleep(20 * time.Millisecond)
	added, limit := runtime.NumGoroutine()-base, nodes+runtime.GOMAXPROCS(0)
	t.Logf("%d started nodes with beacons added %d goroutines (limit %d)", nodes, added, limit)
	if added > limit {
		t.Errorf("%d started nodes added %d goroutines, want at most %d readers and shards", nodes, added, limit)
	}
	for _, n := range ns {
		_ = n.Close()
	}
	left := 0
	for i := range shards {
		s := &shards[i]
		s.mu.Lock()
		for _, j := range s.jobs {
			if slices.Contains(ns, j.n) {
				left++
			}
		}
		s.mu.Unlock()
	}
	if left > 0 {
		t.Errorf("%d jobs of closed nodes are still on the shards", left)
	}
	if !waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after every node closed, %d before any started", runtime.NumGoroutine(), base)
	}
}

// TestDriverCadence runs 200 idle nodes at Δt = 100 ms for two seconds:
// every node runs 20 ± 1 rounds. Then it holds one node's lock for three
// rounds, from just after a round: on release the node runs one round, not
// three, and its next round falls on its phase.
func TestDriverCadence(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const nodes, rt, span = 200, 100 * time.Millisecond, 2 * time.Second
	ns := make([]*Node, nodes)
	for i := range ns {
		cfg := testConfig(uint32(i+1), geo.Point{})
		cfg.ListenAddr, cfg.Transport, cfg.RoundTime = "mem:", sb.Transport(), rt
		if ns[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ns[i].Close() })
		ns[i].Start()
	}
	rounds := func(n *Node) int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.rounds
	}
	before := make([]int, nodes)
	for i, n := range ns {
		before[i] = rounds(n)
	}
	time.Sleep(span)
	want := int(span / rt)
	for i, n := range ns {
		if got := rounds(n) - before[i]; got < want-1 || got > want+1 {
			t.Errorf("node %d ran %d rounds in %v at Δt = %v, want %d ± 1", i, got, span, rt, want)
		}
	}

	n := ns[0]
	r := rounds(n)
	if !waitFor(t, 2*rt, func() bool { return rounds(n) > r }) {
		t.Fatal("no round within two round times")
	}
	n.mu.Lock()
	r, slot := n.rounds, n.roundSlot
	time.Sleep(3*rt + rt/10) // the next round is due 0.6–0.9 rt after the release
	n.mu.Unlock()
	time.Sleep(3 * rt / 10)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rounds != r+1 {
		t.Errorf("%d rounds ran in the poll after a stall of three rounds, want 1", n.rounds-r)
	}
	if want := slot + 3*core.DefaultRoundSlots; n.roundSlot != want {
		t.Errorf("next round at slot %d after the stall, want %d: three rounds on from slot %d, on its phase", n.roundSlot, want, slot)
	}
}
