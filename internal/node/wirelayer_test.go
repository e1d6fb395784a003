package node

import (
	"sync"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/memnet"
	"instantad/internal/node/wire"
	"instantad/internal/obs"
)

// TestConfigValidationWireLayer extends the validation matrix to the
// batching and anti-entropy knobs.
func TestConfigValidationWireLayer(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.BatchSoftCap = -1 },
		func(c *Config) { c.BatchSoftCap = minBatchSoftCap - 1 },
		func(c *Config) { c.BatchSoftCap = wire.MaxPayload + 1 },
		func(c *Config) { c.DigestEvery = -1 },
		func(c *Config) { c.BlockWindow = -time.Second },
		func(c *Config) { c.RoundBytes = -1 },
	}
	for i, mutate := range mutations {
		cfg := testConfig(0, geo.Point{})
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestHasChecksStoredExpiry is the regression for the expiry off-by-one:
// Has must consult the stored expiry against the protocol clock, not merely
// map membership — an expired ad reports false even before any sweep runs.
func TestHasChecksStoredExpiry(t *testing.T) {
	n, err := New(testConfig(1, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close() // never started: no sweep can save the buggy path
	ad, err := n.Issue(core.AdSpec{R: 500, D: 1, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	if !n.Has(ad.ID) {
		t.Fatal("fresh ad not reported live")
	}
	// Shift the protocol clock past the ad's expiry. The ID is still in the
	// seen map (no sweep ran), so only an expiry check can report false.
	n.SetEpoch(time.Now().Add(-2 * time.Second))
	if n.Has(ad.ID) {
		t.Error("expired ad still reported live")
	}
	if n.Stats().SeenLive != 1 {
		t.Fatalf("seen set is %d entries, want 1 (no sweep should have run)", n.Stats().SeenLive)
	}
}

// TestPruneSweepsAtExpiry is the companion regression for the sweep side:
// the first sweep after an ID's expiry must remove it, not grant it a full
// extra round of grace.
func TestPruneSweepsAtExpiry(t *testing.T) {
	n, err := New(testConfig(1, geo.Point{})) // RoundTime 40ms
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	id := ads.ID{Issuer: 9, Seq: 1}
	n.mu.Lock()
	n.seen[id] = 1.0 // expires at protocol t = 1s
	// t = 1.02s: past expiry but within one 40ms round of it — the old
	// exp+round < now condition would have kept the ID here.
	n.pruneSeenLocked(1.02, time.Now())
	_, ok := n.seen[id]
	n.mu.Unlock()
	if ok {
		t.Error("expired ID survived the first sweep past its expiry")
	}
	if n.ctr.SeenPruned.Value() != 1 {
		t.Errorf("seenPruned = %d, want 1", n.ctr.SeenPruned.Value())
	}
}

// TestDetachedPeerHealthFrozen pins the removed-peer contract: a peerState
// detached by removePeer must not accumulate health, trip backoff, or emit
// events from sends that still hold a pre-removal snapshot.
func TestDetachedPeerHealthFrozen(t *testing.T) {
	n, err := New(testConfig(1, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.AddPeer("127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	p := n.peers[0]
	n.mu.Unlock()
	if !n.removePeer("127.0.0.1:9") {
		t.Fatal("peer not removed")
	}
	if !p.detached.Load() {
		t.Fatal("removed peer not marked detached")
	}
	// A send through the stale snapshot must refuse and leave health alone.
	if n.sendTo([]byte{0x00}, p) {
		t.Error("send to a detached peer reported success")
	}
	for i := 0; i < 2*defaultPeerFailLimit; i++ {
		n.peerSendFailed(p, errClosed())
		n.peerSendOK(p)
	}
	if p.sent != 0 || p.failures != 0 || p.consecFails != 0 || p.inBackoff {
		t.Errorf("detached peer health mutated: %+v", p)
	}
	if n.ctr.PeerBackoffs.Value() != 0 {
		t.Error("detached peer tripped backoff")
	}
}

func errClosed() error { return &timeoutErr{} }

type timeoutErr struct{}

func (*timeoutErr) Error() string { return "synthetic send failure" }

// TestRemovePeerDuringBroadcastRace churns peer membership while the node
// gossips — under -race this proves sends and removal cannot mutate a
// peerState unsynchronized (the bug the detached flag fixes).
func TestRemovePeerDuringBroadcastRace(t *testing.T) {
	n, err := New(testConfig(1, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ad := &ads.Advertisement{
		ID: ads.ID{Issuer: 1, Seq: 0}, Origin: geo.Point{},
		IssuedAt: 0, R: 500, D: 1e6, Category: "petrol",
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = n.AddPeer("127.0.0.1:9")
			n.removePeer("127.0.0.1:9")
		}
	}()
	for i := 0; i < 300; i++ {
		n.gossipOut([]*ads.Advertisement{ad.Clone()}, 0)
	}
	close(done)
	wg.Wait()
}

// TestBatchedGossipDelivery checks the wire layer end to end over real UDP:
// with batching at its default soft cap, a multi-ad cache converges across
// nodes and the round gossip actually travels as multi-ad batch frames.
func TestBatchedGossipDelivery(t *testing.T) {
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}, func(i int, c *Config) {
		c.Registry = obs.NewRegistry() // for the batch-size histogram
	})
	var issued []ads.ID
	for i := 0; i < 6; i++ {
		ad, err := nodes[0].Issue(core.AdSpec{R: 800, D: 30, Category: "petrol", Text: "batched"})
		if err != nil {
			t.Fatal(err)
		}
		issued = append(issued, ad.ID)
	}
	// Convergence alone can ride Issue's batches of one; wait until the
	// round gossip has demonstrably packed several ads into one frame too.
	if !waitFor(t, 3*time.Second, func() bool {
		for _, n := range nodes[1:] {
			for _, id := range issued {
				if !n.Has(id) {
					return false
				}
			}
		}
		return nodes[0].hist.batchAds.Sum() > float64(nodes[0].Stats().BatchesSent) && nodes[1].Stats().BatchesRecv > 0
	}) {
		t.Fatalf("no batched convergence; stats: %+v / %+v", nodes[0].Stats(), nodes[1].Stats())
	}
}

// memnetPair builds two unstarted in-range nodes on a private switchboard,
// with digests enabled, so a test can drive the digest → pull → serve
// exchange by hand, frame by frame.
func memnetPair(t *testing.T) (a, b *Node) {
	t.Helper()
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
	mk := func(id uint32) *Node {
		cfg := testConfig(id, geo.Point{X: float64(id)})
		cfg.ListenAddr = "mem:"
		cfg.Transport = sb.Transport()
		cfg.DigestEvery = 1
		cfg.RoundTime = time.Second // block window = 4s: outlasts the test
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetEpoch(epoch)
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	a, b = mk(1), mk(2)
	return a, b
}

// peerUp meshes the pair after any setup issuing, so Issue's immediate
// announcement cannot leak frames into the other node's queue.
func peerUp(t *testing.T, a, b *Node) {
	t.Helper()
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.Addr()); err != nil {
		t.Fatal(err)
	}
}

// readFrame takes one datagram off an unstarted memnet node's conn, where a
// send to it queued the datagram before it returned.
func readFrame(t *testing.T, n *Node) ([]byte, string) {
	t.Helper()
	data, from, ok, err := n.conn.TryRead()
	if !ok || err != nil {
		t.Fatalf("no datagram queued (err %v)", err)
	}
	return data, from
}

// TestIssueAnnouncesOneAdBatch pins the one ad frame: Issue's announcement
// is a batch of one, counted like a gossip round's, and a datagram in the
// retired single-ad envelope format (0xAE) is merely malformed.
func TestIssueAnnouncesOneAdBatch(t *testing.T) {
	a, b := memnetPair(t)
	peerUp(t, a, b)
	before := a.Stats()
	ad, err := a.Issue(core.AdSpec{R: 500, D: 3600, Category: "petrol", Text: "one"})
	if err != nil {
		t.Fatal(err)
	}
	frame, from := readFrame(t, b)
	if frame[0] != batchMagic || frame[batchHeaderLen] != 1 {
		t.Fatalf("first datagram leads 0x%02X with count %d, want 0x%02X with 1",
			frame[0], frame[batchHeaderLen], batchMagic)
	}
	f, err := decodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Ads[0].ID != ad.ID {
		t.Errorf("announced %v, issued %v", f.Ads[0].ID, ad.ID)
	}
	after := a.Stats()
	for name, d := range map[string]uint64{
		"Sent":        after.Sent - before.Sent,
		"Broadcasts":  after.Broadcasts - before.Broadcasts,
		"BatchesSent": after.BatchesSent - before.BatchesSent,
	} {
		if d != 1 {
			t.Errorf("issuer %s rose by %d, want 1", name, d)
		}
	}

	// The same ad as the old envelope: the batch's header, then the bare ad.
	adBytes, err := ad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte{0xAE}, frame[1:batchHeaderLen]...)
	legacy = append(legacy, adBytes...)
	want := b.Stats()
	want.Malformed++
	b.dispatch(legacy, from)
	if got := b.Stats(); got != want {
		t.Errorf("0xAE datagram moved more than Malformed:\ngot  %+v\nwant %+v", got, want)
	}
	if b.Has(ad.ID) {
		t.Error("0xAE datagram delivered its ad")
	}
}

// TestDigestPullServesMissingAds drives the anti-entropy exchange
// deterministically: B holds ads A has never heard; one digest from B makes
// A pull exactly the missing IDs, B serves them as batch frames, and A
// integrates them. A second digest is then a hit, and B's serve block
// window suppresses immediate re-serving.
func TestDigestPullServesMissingAds(t *testing.T) {
	a, b := memnetPair(t)
	var ids []ads.ID
	for i := 0; i < 3; i++ {
		ad, err := b.Issue(core.AdSpec{R: 500, D: 3600, Category: "petrol", Text: "pullable"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ad.ID)
	}
	peerUp(t, a, b) // after issuing: A must have heard nothing
	// Round 1: B digests its cache to A (memnet delivers synchronously).
	b.sendDigest(ids)
	if got := b.Stats().DigestsSent; got != 1 {
		t.Fatalf("DigestsSent = %d, want 1", got)
	}
	frame, from := readFrame(t, a)
	if frame[0] != digestMagic {
		t.Fatalf("A heard 0x%02X, want a digest", frame[0])
	}
	a.handleDigest(frame, from)
	if got := a.Stats().PullsSent; got != 1 {
		t.Fatalf("PullsSent = %d, want 1", got)
	}
	// B serves the pull as batch frames.
	frame, from = readFrame(t, b)
	if frame[0] != pullMagic {
		t.Fatalf("B heard 0x%02X, want a pull", frame[0])
	}
	b.handlePull(frame, from)
	bst := b.Stats()
	if bst.PullsRecv != 1 || bst.PulledAds != 3 {
		t.Fatalf("PullsRecv/PulledAds = %d/%d, want 1/3", bst.PullsRecv, bst.PulledAds)
	}
	// A integrates the served batches and now has everything.
	for got := 0; got < 3; {
		frame, _ = readFrame(t, a)
		if frame[0] != batchMagic {
			t.Fatalf("A heard 0x%02X, want a batch", frame[0])
		}
		before := a.Stats().Received
		a.handleBatch(frame)
		got += int(a.Stats().Received - before)
	}
	for _, id := range ids {
		if !a.Has(id) {
			t.Fatalf("ad %v not pulled", id)
		}
	}
	// Round 2: the same digest is now a hit — nothing is missing.
	df := &idFrame{Sender: b.cfg.ID, Pos: geo.Point{X: 2}, IDs: ids}
	data, err := df.encode(digestMagic)
	if err != nil {
		t.Fatal(err)
	}
	a.handleDigest(data, b.Addr())
	ast := a.Stats()
	if ast.DigestHits != 1 {
		t.Errorf("DigestHits = %d, want 1", ast.DigestHits)
	}
	if ast.PullsSent != 1 {
		t.Errorf("PullsSent = %d after hit, want still 1", ast.PullsSent)
	}
	// A sits inside B's serve block window now: a repeated pull is refused,
	// and B's own digests skip A.
	pf := &idFrame{Sender: a.cfg.ID, Pos: geo.Point{X: 1}, IDs: ids}
	pull, err := pf.encode(pullMagic)
	if err != nil {
		t.Fatal(err)
	}
	b.handlePull(pull, a.Addr())
	bst = b.Stats()
	if bst.BlockedServes == 0 {
		t.Error("repeated pull inside the block window was served")
	}
	if bst.PulledAds != 3 {
		t.Errorf("PulledAds = %d after blocked pull, want still 3", bst.PulledAds)
	}
	b.sendDigest(ids)
	if got := b.Stats().DigestsSent; got != 1 {
		t.Errorf("DigestsSent = %d, want still 1 (A is inside the block window)", got)
	}
}

// TestRoundByteBudgetDefers pins the rate-control backstop: with a budget
// smaller than one batch frame, gossip sends defer instead of transmitting.
func TestRoundByteBudgetDefers(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, geo.Point{})
	cfg.ListenAddr = "mem:"
	cfg.Transport = sb.Transport()
	cfg.RoundTime = time.Hour // the budget window must not roll mid-test
	cfg.RoundBytes = 64       // smaller than any batch frame
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer, err := sb.Listen("mem:")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := n.AddPeer(peer.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	ad := &ads.Advertisement{
		ID: ads.ID{Issuer: 1, Seq: 0}, Origin: geo.Point{},
		IssuedAt: 0, R: 500, D: 1e6, Category: "petrol", Text: "too big for 64B",
	}
	n.gossipOut([]*ads.Advertisement{ad}, 0)
	st := n.Stats()
	if st.BudgetDeferred == 0 {
		t.Error("no send deferred despite a 64-byte budget")
	}
	if st.BatchesSent != 0 {
		t.Errorf("BatchesSent = %d under an exhausted budget, want 0", st.BatchesSent)
	}
}

// TestFaultProxyTruncatesBatchFrames runs batch traffic through a proxy
// that truncates aggressively: the receiver must count the mangled frames
// malformed and keep integrating the intact ones, never crashing.
func TestFaultProxyTruncatesBatchFrames(t *testing.T) {
	recv, err := New(testConfig(2, geo.Point{X: 50}))
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.Start()
	proxy, err := NewFaultProxy(recv.Addr(), FaultConfig{Truncate: 0.5, Garbage: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	send, err := New(testConfig(1, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if err := send.AddPeer(proxy.Addr()); err != nil {
		t.Fatal(err)
	}
	var list []*ads.Advertisement
	for i := 0; i < 8; i++ {
		list = append(list, &ads.Advertisement{
			ID: ads.ID{Issuer: 1, Seq: uint32(i)}, Origin: geo.Point{},
			IssuedAt: 0, R: 500, D: 1e6, Category: "petrol", Text: "truncate me",
		})
	}
	for i := 0; i < 60; i++ {
		send.gossipOut(list, 0)
		time.Sleep(2 * time.Millisecond)
	}
	ok := waitFor(t, 3*time.Second, func() bool {
		st := recv.Stats()
		return st.Malformed > 0 && st.BatchesRecv > 0
	})
	st := recv.Stats()
	if !ok {
		t.Fatalf("want both malformed and intact batches; stats: %+v", st)
	}
	for _, ad := range list {
		if !recv.Has(ad.ID) {
			t.Errorf("ad %v never survived the lossy link", ad.ID)
		}
	}
}
