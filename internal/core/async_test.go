package core

import (
	"math"
	"reflect"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// asyncConfig is testConfig tuned for the pairwise family: frequent scans so
// short test runs see many exchanges.
func asyncConfig(k int) Config {
	cfg := testConfig(AsyncGossip)
	cfg.AsyncK = k
	cfg.AsyncMeanDelay = 1
	cfg.AsyncTimeout = 2
	return cfg
}

// TestSlotsForClampsToOneSlot is the zero-slot regression test: a delay of
// zero (uniform draws can produce exactly 0) or smaller than the float grid
// must still advance a timer by one whole slot — a zero-slot reschedule
// lands at the timer's current instant, and the executor would re-fire it in
// the very batch that armed it.
func TestSlotsForClampsToOneSlot(t *testing.T) {
	_, n := staticNet(t, testConfig(GossipOpt2), []geo.Point{{X: 0, Y: 0}})
	for _, delay := range []float64{0, 1e-300, n.slotW / 2} {
		if got := n.slotsFor(delay); got != 1 {
			t.Errorf("slotsFor(%g) = %d, want 1 (clamped)", delay, got)
		}
	}
	if got := n.slotsFor(2.5 * n.slotW); got != 3 {
		t.Errorf("slotsFor(2.5 slots) = %d, want 3 (ceil)", got)
	}
}

// TestSlotAfterExactBoundary audits the slot rounding at exact boundaries:
// an instant already on the grid maps to its own slot (no spurious bump),
// one ULP above maps to the next, and armEntryTimer from a boundary instant
// always schedules strictly in the future.
func TestSlotAfterExactBoundary(t *testing.T) {
	_, n := staticNet(t, testConfig(GossipOpt2), []geo.Point{{X: 0, Y: 0}})
	for _, k := range []int64{0, 1, 7, 64, 1000} {
		at := float64(k) * n.slotW
		if got := n.slotAfter(at); got != k {
			t.Errorf("slotAfter(%d·slotW) = %d, want %d", k, got, k)
		}
	}
	if got := n.slotAfter(3*n.slotW + 1e-12); got != 4 {
		t.Errorf("slotAfter(just past slot 3) = %d, want 4", got)
	}
	// A timer armed at a boundary instant (now + RoundTime lands exactly on
	// the grid because slotW divides RoundTime) must fire strictly later.
	slot := n.slotAfter(n.sim.Now() + n.cfg.RoundTime)
	if at := float64(slot) * n.slotW; at <= n.sim.Now() {
		t.Errorf("entry timer instant %v not strictly after now %v", at, n.sim.Now())
	}
}

// TestAsyncSpread checks end-to-end dissemination under the pairwise family:
// a chain of static peers inside radio range, no broadcasts anywhere, and
// the ad still reaches every peer through propose/accept/transfer exchanges.
func TestAsyncSpread(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 120, Y: 0}, {X: 180, Y: 0}}
	s, n := staticNet(t, asyncConfig(2), pts)
	reg := obs.NewRegistry()
	n.InstrumentWith(reg)
	n.Start()
	ad, err := n.IssueAd(0, AdSpec{R: 500, D: 400, Category: "food", Text: "async"})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(200)
	for i := range pts {
		if !n.Peer(i).HasReceived(ad.ID) {
			t.Errorf("peer %d never received the ad through pairwise exchanges", i)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["sim_async_proposals_total"] == 0 {
		t.Error("no proposals counted")
	}
	if snap.Counters["sim_async_exchanges_total"] == 0 {
		t.Error("no completed exchanges counted")
	}
	if snap.Histograms["sim_async_exchange_bytes"].Count == 0 {
		t.Error("no exchange bytes observed")
	}
}

// TestAsyncConnectionBound pins the k-bound: with AsyncK=1 and three peers
// in mutual range, no peer ever holds more than one connection slot, and
// contention produces busy-rejects.
func TestAsyncConnectionBound(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 20, Y: 35}}
	s, n := staticNet(t, asyncConfig(1), pts)
	reg := obs.NewRegistry()
	n.InstrumentWith(reg)
	n.Start()
	if _, err := n.IssueAd(0, AdSpec{R: 500, D: 400, Category: "food", Text: "bound"}); err != nil {
		t.Fatal(err)
	}
	s.Every(0.25, 0.25, func() {
		for i := 0; i < n.NumPeers(); i++ {
			if got := len(n.Peer(i).async.conns); got > 1 {
				t.Fatalf("peer %d holds %d connections, bound is 1", i, got)
			}
		}
	})
	s.Run(150)
	snap := reg.Snapshot()
	if snap.Counters["sim_async_busy_total"] == 0 {
		t.Error("three peers contending for k=1 slots produced no busy-rejects")
	}
	if hs := snap.Histograms["sim_async_concurrent_exchanges"]; hs.Count == 0 {
		t.Error("concurrent-exchange histogram never observed")
	}
}

// TestAsyncChurnTimeouts drives the reclaim path: handshake frames lost by
// the channel must release their slot via timeout, not wedge the proposer
// forever — including while the counterpart churns offline and back.
func TestAsyncChurnTimeouts(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}
	sm := sim.New()
	models := []mobility.Model{mobility.NewStatic(pts[0]), mobility.NewStatic(pts[1])}
	rcfg := testRadio()
	rcfg.LossRate = 0.4
	n, err := New(sm, rcfg, models, asyncConfig(1), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	s := sm
	reg := obs.NewRegistry()
	n.InstrumentWith(reg)
	n.Start()
	if _, err := n.IssueAd(0, AdSpec{R: 500, D: 400, Category: "food", Text: "churn"}); err != nil {
		t.Fatal(err)
	}
	// Toggle peer 1 on exact slot-grid instants (RoundTime multiples) so the
	// satellite audit's boundary case — state changes coinciding with timer
	// instants — is exercised too; a schedule-in-the-past would panic here.
	online := true
	s.Every(n.cfg.RoundTime, n.cfg.RoundTime, func() {
		online = !online
		if err := n.SetPeerOnline(1, online); err != nil {
			t.Fatal(err)
		}
	})
	s.Run(200)
	if reg.Snapshot().Counters["sim_async_timeouts_total"] == 0 {
		t.Error("proposals to an offline peer never timed out")
	}
	// The survivor must not be wedged: its slot count is 0 or 1, and its scan
	// timer is still armed.
	if got := len(n.Peer(0).async.conns); got > 1 {
		t.Errorf("proposer holds %d slots after churn run, bound is 1", got)
	}
	if !n.Peer(0).async.scanEv.Pending() {
		t.Error("scan timer dead after churn run")
	}
}

// TestAsyncIssueDoesNotBroadcast pins the family's defining property: issue
// puts the ad in the issuer's cache only — the radio stays silent until an
// exchange is established.
func TestAsyncIssueDoesNotBroadcast(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}
	_, n := staticNet(t, asyncConfig(1), pts)
	n.Start()
	ad, err := n.IssueAd(0, AdSpec{R: 500, D: 400, Category: "food", Text: "quiet"})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Channel().Stats().Broadcasts; got != 0 {
		t.Errorf("IssueAd under AsyncGossip transmitted %d frames, want 0", got)
	}
	if n.Peer(0).cache.Get(ad.ID) == nil {
		t.Error("issuer's own cache does not hold the issued ad")
	}
}

// TestAsyncConfigValidation covers the new Config fields and the widened
// protocol bound.
func TestAsyncConfigValidation(t *testing.T) {
	cfg := testConfig(AsyncGossip)
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid async config rejected: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"negative k":       func(c *Config) { c.AsyncK = -1 },
		"negative delay":   func(c *Config) { c.AsyncMeanDelay = -1 },
		"negative timeout": func(c *Config) { c.AsyncTimeout = -0.5 },
		"past enum end":    func(c *Config) { c.Protocol = AsyncGossip + 1 },
	} {
		bad := cfg
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if got, err := ParseProtocol("Async Gossiping"); err != nil || got != AsyncGossip {
		t.Errorf("ParseProtocol(Async Gossiping) = %v, %v", got, err)
	}
	if AsyncGossip.isGossip() {
		t.Error("AsyncGossip classified as round-based gossip")
	}
	if !AsyncGossip.isAsync() || Gossip.isAsync() {
		t.Error("isAsync misclassifies")
	}
}

// idleAsyncNet is two static peers in range under the async family with the
// connection managers in place but no scan timers armed, so a test drives
// every handshake step itself.
func idleAsyncNet(t *testing.T, k int, rcfg radio.Config) (*sim.Simulator, *Network, *obs.Registry) {
	t.Helper()
	s := sim.New()
	models := []mobility.Model{mobility.NewStatic(geo.Point{}), mobility.NewStatic(geo.Point{X: 50})}
	n, err := New(s, rcfg, models, asyncConfig(k), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	n.InstrumentWith(reg)
	for _, p := range n.peers {
		p.async = &asyncPeerState{}
	}
	return s, n, reg
}

// TestAsyncSlotTimerRearm pins the reuse of connection slots and their
// timers: a re-armed timer fires AsyncTimeout after the re-arming and reclaims
// the connection its slot holds then — never at the deadline of, nor for, the
// connection the slot served before — whether the timer had been cancelled or
// had fired; a cancelled timer is never dispatched.
func TestAsyncSlotTimerRearm(t *testing.T) {
	s, n, reg := idleAsyncNet(t, 2, testRadio())
	p := n.peers[0]
	st := p.async
	timeouts := func() uint64 { return reg.Snapshot().Counters["sim_async_timeouts_total"] }
	held := func() []uint64 {
		var ids []uint64
		for _, c := range st.conns {
			ids = append(ids, c.id)
		}
		return ids
	}
	expect := func(when string, wantTimeouts uint64, wantHeld ...uint64) {
		t.Helper()
		if got := held(); !reflect.DeepEqual(got, wantHeld) || timeouts() != wantTimeouts {
			t.Fatalf("%s: holds %v with %d timeouts, want %v with %d", when, got, timeouts(), wantHeld, wantTimeouts)
		}
	}
	const a, b, c, d, e, f, g = 1, 2, 3, 4, 5, 6, 7 // timeout is 2 s

	p.openConn(a, 1, true) // t=0, deadline 2
	slot := st.conns[0]
	s.Run(1)
	if !p.closeConn(a) || slot.timer.Pending() {
		t.Fatal("closing a held connection did not cancel its timer")
	}
	s.Run(1.5)
	p.openConn(b, 1, false) // the cancelled timer, re-armed: deadline 3.5
	if st.conns[0] != slot || len(st.idle) != 0 {
		t.Fatal("the idle slot was not reused")
	}
	s.Run(2.5)
	expect("past a's old deadline", 0, b)
	s.Run(3.6)
	expect("past b's deadline", 1)

	p.openConn(c, 1, true) // t=3.6, deadline 5.6: the fired timer, re-armed
	s.Run(5.7)
	expect("past c's deadline", 2)
	p.openConn(d, 1, true) // deadline 7.7
	if st.conns[0] != slot {
		t.Fatal("the slot was not reused after its timer fired")
	}
	if p.closeConn(c) {
		t.Fatal("a straggler for timed-out c closed something")
	}
	expect("after c's straggler", 2, d)

	p.openConn(e, 1, true) // a second slot, deadline 7.7
	if p.closeConn(d); len(st.idle) != 1 {
		t.Fatal("d's slot not idle")
	}
	s.Run(7)
	p.openConn(f, 1, true) // d's slot again, deadline 9
	s.Run(8)
	expect("past e's deadline", 3, f)
	p.openConn(g, 1, true) // e's slot, deadline 10
	s.Run(9.5)
	expect("past f's deadline", 4, g)
	s.Run(11)
	expect("at the end", 5)
	if got := s.Dispatched(); got != 5 {
		t.Errorf("%d events dispatched for 5 timeouts: a cancelled timer fired", got)
	}
	if len(st.idle) != 2 {
		t.Errorf("%d slots made for at most 2 simultaneous connections", len(st.idle))
	}
}

// TestAsyncStragglerAcceptAbsorbsAds: an accept arriving after its proposal
// timed out finds no slot, yet its ads are taken in; no transfer answers it
// and no exchange is counted.
func TestAsyncStragglerAcceptAbsorbsAds(t *testing.T) {
	_, n, reg := idleAsyncNet(t, 1, testRadio())
	ad := &ads.Advertisement{ID: ads.ID{Issuer: 1, Seq: 9}, Origin: geo.Point{X: 50}, R: 500, D: 400}
	p := n.peers[0]
	p.handleAsync(&asyncFrame{kind: asyncAccept, conn: 77, ads: []*ads.Advertisement{ad}}, 1)
	if p.cache.Get(ad.ID) == nil || !p.HasReceived(ad.ID) {
		t.Error("straggler accept's ad was not absorbed")
	}
	if got := n.ch.Stats().Broadcasts; got != 0 {
		t.Errorf("straggler accept was answered with %d frames", got)
	}
	if got := reg.Snapshot().Counters["sim_async_exchanges_total"]; got != 0 {
		t.Errorf("straggler accept counted %d completed exchanges", got)
	}
}

// TestAsyncFrameRecycling follows frames by identity. A delivered frame goes
// back to the free list once, after its receiver has absorbed it, emptied of
// its ad references. A frame whose receiver powered down in flight, or that
// the channel lost, is never seen again: it is not on the free list, later
// sends do not use it, and what its sender wrote stays in it.
func TestAsyncFrameRecycling(t *testing.T) {
	onFreeList := func(n *Network, f *asyncFrame) (c int) {
		for _, g := range n.asyncFree {
			if g == f {
				c++
			}
		}
		return c
	}
	// seed makes peer 0 hold an ad it forwards with near certainty and puts a
	// known frame on the free list for the next send to take.
	seed := func(n *Network) *asyncFrame {
		if _, err := n.IssueAd(0, AdSpec{R: 500, D: 400}); err != nil {
			t.Fatal(err)
		}
		f := new(asyncFrame)
		n.asyncFree = append(n.asyncFree, f)
		return f
	}

	t.Run("delivered", func(t *testing.T) {
		s, n, _ := idleAsyncNet(t, 1, testRadio())
		f := seed(n)
		n.peers[0].sendAsync(asyncTransfer, 5, 1)
		if len(f.ads) != 1 || len(n.asyncFree) != 0 {
			t.Fatalf("send took %d ads into the frame, left %d frames free; want 1 and 0", len(f.ads), len(n.asyncFree))
		}
		ad := f.ads[0]
		s.Run(1)
		if n.peers[1].cache.Get(ad.ID) == nil {
			t.Error("receiver did not absorb the transfer")
		}
		if onFreeList(n, f) != 1 {
			t.Errorf("delivered frame is on the free list %d times", onFreeList(n, f))
		}
		if len(f.ads) != 0 || f.ads[:1][0] != nil {
			t.Error("recycled frame still references its ads")
		}
	})

	lost := func(t *testing.T, rcfg radio.Config, inFlight func(*Network)) {
		s, n, _ := idleAsyncNet(t, 1, rcfg)
		f := seed(n)
		n.peers[0].sendAsync(asyncTransfer, 5, 1)
		sent := *f
		sentAds := append([]*ads.Advertisement(nil), f.ads...)
		if len(sentAds) != 1 {
			t.Fatalf("frame carries %d ads, want 1", len(sentAds))
		}
		inFlight(n)
		s.Run(1)
		if err := n.SetPeerOnline(1, true); err != nil {
			t.Fatal(err)
		}
		// Traffic afterwards, both ways, delivered or not.
		for i := 0; i < 4; i++ {
			n.peers[0].sendAsync(asyncTransfer, uint64(10+i), 1)
			n.peers[1].sendAsync(asyncBusy, uint64(20+i), 0)
			s.Run(s.Now() + 1)
		}
		if onFreeList(n, f) != 0 {
			t.Error("an undelivered frame reached the free list")
		}
		if f.kind != sent.kind || f.conn != sent.conn || !reflect.DeepEqual(f.ads, sentAds) {
			t.Errorf("an undelivered frame was written again: %+v, sent %+v", *f, sent)
		}
	}
	t.Run("receiver-offline-in-flight", func(t *testing.T) {
		lost(t, testRadio(), func(n *Network) {
			if err := n.SetPeerOnline(1, false); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("lost-by-channel", func(t *testing.T) {
		rcfg := testRadio()
		rcfg.LossRate = math.Nextafter(1, 0) // the largest rate the channel accepts
		lost(t, rcfg, func(*Network) {})
	})
}

// BenchmarkAsyncExchange is the pairwise family in steady state: 49 static
// peers in mutual range of their grid neighbours, every cache holding the same
// five long-lived ads, so every second of simulation is a few dozen scans
// and propose → accept → transfer handshakes whose frames carry ads that are
// absorbed as duplicates, plus the busy answers and timeouts of k = 2. It
// must not allocate: frames, ad buffers, slots and timers are all reused.
func BenchmarkAsyncExchange(b *testing.B) {
	var pts []geo.Point
	for x := 0; x < 7; x++ {
		for y := 0; y < 7; y++ {
			pts = append(pts, geo.Point{X: 100 * float64(x), Y: 100 * float64(y)})
		}
	}
	s := sim.New()
	models := make([]mobility.Model, len(pts))
	for i, p := range pts {
		models[i] = mobility.NewStatic(p)
	}
	n, err := New(s, testRadio(), models, asyncConfig(2), rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	n.InstrumentWith(reg)
	n.Start()
	for i := 0; i < 5; i++ {
		if _, err := n.IssueAd(i*9, AdSpec{R: 2000, D: 1e7}); err != nil {
			b.Fatal(err)
		}
	}
	s.Run(300)
	for _, p := range n.peers {
		if p.cache.Len() != 5 {
			b.Fatalf("peer %d holds %d ads after the warm-up, want 5", p.id, p.cache.Len())
		}
	}
	before := reg.Snapshot().Counters["sim_async_exchanges_total"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + 1)
	}
	b.StopTimer()
	done := reg.Snapshot().Counters["sim_async_exchanges_total"] - before
	b.ReportMetric(float64(done)/float64(b.N), "exchanges/op")
}
