package node

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/memnet"
	"instantad/internal/node/transport"
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
	transport.PacketConn
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

// drainedNode is watchedNode without the write counter, so that its conn
// is a memnet endpoint its shard drains.
func drainedNode(t *testing.T, sb *memnet.Switchboard, id uint32, rt time.Duration, sink string) (*Node, *lateWatch) {
	t.Helper()
	n, w := watchedNode(t, sb, id, rt, sink)
	n.conn = n.conn.(watchConn).PacketConn
	return n, w
}

// TestCloseNeverWaitsOutAPoll pins Close's contract with the poll driver:
// it takes the node's jobs off its shard and waits only for a poll or drain
// already running, so it returns within 50 ms at a round time of an hour as
// at 100 ms, started or not, and no observer call and no send follow it. A
// node off the driver dispatches nothing, and drained nodes closed under a
// stream of frames dispatch nothing after Close. Then 200 nodes polling
// every 4 ms close concurrently (run it under -race).
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
	t.Run("left the driver", func(t *testing.T) {
		// Close's middle state: the node is off the driver but its conn is
		// still open. A frame that arrives then is never dispatched.
		n, w := drainedNode(t, sb, 1, 20*time.Millisecond, sink.LocalAddr())
		n.Start()
		defer n.Close()
		n.pollMu.Lock()
		n.unscheduled = true
		n.pollMu.Unlock()
		if _, err := sink.WriteTo([]byte{0xFF}, n.Addr()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(after)
		if m := n.Stats().Malformed; m != 0 || w.late.Load() != 0 {
			t.Errorf("a node off the driver dispatched %d frames", m)
		}
	})
	t.Run("under traffic", func(t *testing.T) {
		// 40 drained nodes close while two feeders keep sending each of them
		// an ad batch and a malformed frame: nothing is dispatched after a
		// node's Close returned.
		const nodes = 40
		ns := make([]*Node, nodes)
		ws := make([]*lateWatch, nodes)
		for i := range ns {
			ns[i], ws[i] = drainedNode(t, sb, uint32(i+300), 20*time.Millisecond, sink.LocalAddr())
			ns[i].Start()
		}
		stop := make(chan struct{})
		var feeders sync.WaitGroup
		for f := 0; f < 2; f++ {
			feeder, err := sb.Listen("mem:")
			if err != nil {
				t.Fatal(err)
			}
			defer feeder.Close()
			feeders.Add(1)
			go func(f int) {
				defer feeders.Done()
				for seq := uint32(0); ; seq++ {
					ad := &ads.Advertisement{ID: ads.ID{Issuer: uint32(900 + f), Seq: seq % 64}, R: 1000, D: 60}
					frames, _ := packBatches(uint32(900+f), geo.Point{}, geo.Vec{}, []*ads.Advertisement{ad}, 0)
					for _, n := range ns {
						select {
						case <-stop:
							return
						default:
						}
						_, _ = feeder.WriteTo(frames[0].data, n.Addr())
						_, _ = feeder.WriteTo([]byte{0xFF}, n.Addr())
					}
					time.Sleep(time.Millisecond)
				}
			}(f)
		}
		time.Sleep(after)
		dispatched := func(n *Node) uint64 {
			st := n.Stats()
			return st.BatchesRecv + st.Malformed
		}
		at := make([]uint64, nodes)
		var wg sync.WaitGroup
		for i := range ns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_ = ns[i].Close()
				ws[i].closed.Store(true)
				at[i] = dispatched(ns[i])
			}(i)
		}
		wg.Wait()
		time.Sleep(after)
		close(stop)
		feeders.Wait()
		for i, n := range ns {
			if at[i] == 0 {
				t.Errorf("node %d dispatched nothing before it closed: the feeders did not reach it", i)
			}
			if d := dispatched(n) - at[i]; d != 0 || ws[i].late.Load() != 0 {
				t.Errorf("node %d: %d frames dispatched and %d observer calls after Close returned", i, d, ws[i].late.Load())
			}
		}
	})
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

// frames counts the goroutines whose stack holds a call of fn.
func frames(fn string) int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), fn+"(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestDriverGoroutines counts what a started node costs in goroutines. A
// memnet node costs none: its shard runs its polls and beacons and
// dispatches its datagrams, so a fleet adds at most its shard goroutines —
// not a reader per node, nor a ticker goroutine for its poll and another for
// its beacon. A UDP node adds one, its conn's reader, and no node runs a
// receive loop of its own. Once every node has closed, no shard holds one
// of their jobs and the count settles back: a shard left running is a leak.
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
	added, limit := runtime.NumGoroutine()-base, len(shards)
	t.Logf("%d started memnet nodes with beacons added %d goroutines (limit %d)", nodes, added, limit)
	if added > limit {
		t.Errorf("%d started memnet nodes added %d goroutines, want at most its %d shards", nodes, added, limit)
	}
	udp, err := New(testConfig(nodes+1, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	// Every shard runs already, so the UDP node's poll costs no goroutine.
	before := runtime.NumGoroutine()
	udp.Start()
	const reader = "transport.(*udpConn).read"
	if !waitFor(t, time.Second, func() bool { return frames(reader) == 1 }) {
		t.Errorf("a started UDP node runs %d conn readers, want 1", frames(reader))
	}
	if added := runtime.NumGoroutine() - before; added != 1 {
		t.Errorf("a started UDP node added %d goroutines, want 1", added)
	}
	if r := frames(".(*Node).readLoop"); r != 0 {
		t.Errorf("%d goroutines run a node receive loop", r)
	}
	_ = udp.Close()
	if !waitFor(t, time.Second, func() bool { return frames(reader) == 0 }) {
		t.Errorf("a closed UDP node left %d conn readers", frames(reader))
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

// oneShard runs the test's nodes on a poll driver of one shard.
func oneShard(t *testing.T) {
	saved := shards
	shards = make([]shard, 1)
	t.Cleanup(func() { shards = saved })
}

// TestShardNeverWaitsOnANode holds node 0's lock for five rounds on a shard
// of 20 idle memnet nodes at Δt = 100 ms: every other node runs 5 ± 1 rounds
// in the hold, and of two frames sent halfway through it, an ad batch to
// node 0 (its handler takes the lock) and then a frame to node 1, node 1's
// is dispatched before the hold ends and node 0's soon after. A shard that
// waited for the lock would run no round and dispatch nothing in the hold.
func TestShardNeverWaitsOnANode(t *testing.T) {
	oneShard(t)
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := sb.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	const nodes, rt, hold = 20, 100 * time.Millisecond, 500 * time.Millisecond
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
	time.Sleep(rt) // past every node's first round
	before := make([]int, nodes)
	ns[0].mu.Lock()
	began := time.Now()
	for i, n := range ns[1:] {
		before[i+1] = rounds(n)
	}
	time.Sleep(hold / 2)
	ad := &ads.Advertisement{ID: ads.ID{Issuer: 99}, R: 1000, D: 60}
	batch, _ := packBatches(99, geo.Point{}, geo.Vec{}, []*ads.Advertisement{ad}, 0)
	if _, err := sender.WriteTo(batch[0].data, ns[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.WriteTo([]byte{0xFF}, ns[1].Addr()); err != nil {
		t.Fatal(err)
	}
	for ns[1].Stats().Malformed == 0 && time.Since(began) < hold {
		time.Sleep(time.Millisecond)
	}
	dispatched := ns[1].Stats().Malformed != 0
	time.Sleep(hold - time.Since(began))
	got := make([]int, nodes)
	for i, n := range ns[1:] {
		got[i+1] = rounds(n) - before[i+1]
	}
	ns[0].mu.Unlock()
	if !dispatched {
		t.Error("the frame sent to node 1 during the hold was not dispatched before the hold ended")
	}
	if !waitFor(t, rt, func() bool { return ns[0].Has(ad.ID) }) {
		t.Error("the frame sent to node 0 during the hold was not dispatched after it")
	}
	want := int(hold / rt)
	for i := 1; i < nodes; i++ {
		if got[i] < want-1 || got[i] > want+1 {
			t.Errorf("node %d ran %d rounds while node 0's lock was held for %v, want %d ± 1", i, got[i], hold, want)
		}
	}
}

// TestShardDrainsWithoutSleeping runs a digest exchange between two memnet
// nodes on one shard at Δt = 1 h, where the shard otherwise naps 50 ms at a
// time: B hears a digest from A, pulls the ad from A, and A serves it. The
// pull and the batch each reach their node while the shard is awake, so a
// shard that slept with them on its ready list would take 100 ms; the
// fastest of five exchanges must take under 30 ms.
func TestShardDrainsWithoutSleeping(t *testing.T) {
	oneShard(t)
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id uint32) *Node {
		cfg := testConfig(id, geo.Point{})
		cfg.ListenAddr, cfg.Transport, cfg.RoundTime = "mem:", sb.Transport(), time.Hour
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	a, b := mk(1), mk(2)
	a.Start()
	b.Start()
	fastest := time.Hour
	for i := 0; i < 5; i++ {
		ad, err := a.Issue(core.AdSpec{R: 1000, D: 60})
		if err != nil {
			t.Fatal(err)
		}
		f := idFrame{Sender: a.cfg.ID, IDs: []ads.ID{ad.ID}}
		digest, err := f.encode(digestMagic)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond) // the shard naps
		began := time.Now()
		if _, err := a.conn.WriteTo(digest, b.Addr()); err != nil {
			t.Fatal(err)
		}
		for !b.Has(ad.ID) && time.Since(began) < time.Second {
			time.Sleep(100 * time.Microsecond)
		}
		if !b.Has(ad.ID) {
			t.Fatal("B never pulled the ad")
		}
		fastest = min(fastest, time.Since(began))
	}
	t.Logf("fastest digest, pull and serve on one shard: %v", fastest)
	if fastest >= 30*time.Millisecond {
		t.Errorf("the fastest exchange took %v: the shard slept with nodes ready", fastest)
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
