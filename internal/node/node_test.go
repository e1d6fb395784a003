package node

import (
	"errors"
	"math"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/transport"
)

// testConfig returns a fast-gossip node config at the given virtual
// position.
func testConfig(id uint32, pos geo.Point) Config {
	return Config{
		ID:         id,
		ListenAddr: "127.0.0.1:0",
		Range:      250,
		Position:   StaticPosition(pos),
		Alpha:      0.5,
		Beta:       0.5,
		RoundTime:  40 * time.Millisecond,
		CacheK:     10,
		Seed:       uint64(id) + 1,
	}
}

// cluster builds and starts nodes at the given positions, fully meshed at
// the datagram level (the virtual radio does the filtering), with a shared
// epoch.
func cluster(t *testing.T, positions []geo.Point, mutate func(i int, c *Config)) []*Node {
	t.Helper()
	nodes := make([]*Node, len(positions))
	epoch := time.Now()
	for i, p := range positions {
		cfg := testConfig(uint32(i), p)
		if mutate != nil {
			mutate(i, &cfg)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetEpoch(epoch)
		nodes[i] = n
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				if err := a.AddPeer(b.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, n := range nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})
	return nodes
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.ListenAddr = "" },
		func(c *Config) { c.Position = nil },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.RoundTime = 0 },
		func(c *Config) { c.CacheK = 0 },
		func(c *Config) { c.Range = -1 },
		func(c *Config) { c.Range = math.NaN() },
		func(c *Config) { c.Range = math.Inf(1) },
		func(c *Config) { c.Range = math.Inf(-1) },
		func(c *Config) { c.DIS = -1 },
		func(c *Config) { c.DIS = math.NaN() },
		func(c *Config) { c.DIS = math.Inf(1) },
		func(c *Config) { c.DIS = math.Inf(-1) },
		// Sketch shapes fm.New panics on, and non-finite Formula 7 inputs.
		func(c *Config) { c.Popularity = core.PopularityConfig{Enabled: true, L: 65} },
		func(c *Config) { c.Popularity = core.PopularityConfig{Enabled: true, F: -1} },
		func(c *Config) { c.Popularity = core.PopularityConfig{Enabled: true, RInc: math.NaN()} },
		func(c *Config) { c.Popularity = core.PopularityConfig{Enabled: true, DInc: math.Inf(1)} },
	}
	for i, mutate := range mutations {
		cfg := testConfig(0, geo.Point{})
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	cfg := testConfig(0, geo.Point{})
	cfg.Peers = []string{"not an address::"}
	if _, err := New(cfg); err == nil {
		t.Error("bad peer address accepted")
	}
}

func TestMultiHopDeliveryOverUDP(t *testing.T) {
	// Chain: A(0) – B(200) – C(400); range 250 m. C can only hear the ad via
	// B's relays — real datagrams over loopback.
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}}, nil)
	ad, err := nodes[0].Issue(core.AdSpec{R: 800, D: 30, Category: "petrol", Text: "live ad"})
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 3*time.Second, func() bool { return nodes[2].Has(ad.ID) }) {
		t.Fatalf("node C never received via relay; B stats: %+v, C stats: %+v",
			nodes[1].Stats(), nodes[2].Stats())
	}
	if !nodes[1].Has(ad.ID) {
		t.Error("relay node B never received")
	}
}

func TestVirtualRadioEnforcesRange(t *testing.T) {
	// D sits 1000 m from everyone: datagrams arrive at its socket but the
	// virtual radio drops them.
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 1000, Y: 1000}}, nil)
	ad, err := nodes[0].Issue(core.AdSpec{R: 2000, D: 20, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return nodes[1].Has(ad.ID) }) {
		t.Fatal("in-range node never received")
	}
	time.Sleep(200 * time.Millisecond)
	if nodes[2].Has(ad.ID) {
		t.Error("out-of-range node received despite virtual radio")
	}
	if nodes[2].Stats().OutOfRange == 0 {
		t.Error("no out-of-range drops counted")
	}
}

func TestExpiryOverWallClock(t *testing.T) {
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, nil)
	ad, err := nodes[0].Issue(core.AdSpec{R: 500, D: 0.3, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return nodes[1].Has(ad.ID) })
	// After D plus slack, no node caches the ad and gossip is silent.
	time.Sleep(600 * time.Millisecond)
	for i, n := range nodes {
		for _, cached := range n.Cached() {
			if cached.ID == ad.ID {
				t.Errorf("node %d still caches the expired ad", i)
			}
		}
	}
	sent := nodes[0].Stats().Sent + nodes[1].Stats().Sent
	time.Sleep(300 * time.Millisecond)
	sent2 := nodes[0].Stats().Sent + nodes[1].Stats().Sent
	if sent2 > sent {
		t.Errorf("gossip continued after expiry: %d → %d", sent, sent2)
	}
}

func TestOpt2PostponementReducesTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	run := func(opt2 bool) uint64 {
		positions := []geo.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 80, Y: 0}, {X: 40, Y: 40}}
		nodes := cluster(t, positions, func(i int, c *Config) { c.Opt2 = opt2 })
		ad, err := nodes[0].Issue(core.AdSpec{R: 500, D: 2, Category: "petrol"})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, time.Second, func() bool {
			for _, n := range nodes {
				if !n.Has(ad.ID) {
					return false
				}
			}
			return true
		})
		time.Sleep(2 * time.Second) // let the life cycle play out
		var total uint64
		for _, n := range nodes {
			total += n.Stats().Broadcasts
		}
		return total
	}
	pure := run(false)
	opt := run(true)
	if opt >= pure {
		t.Errorf("opt2 broadcasts %d not below pure %d", opt, pure)
	}
}

func TestDuplicateEnlargementMerge(t *testing.T) {
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, nil)
	ad, err := nodes[0].Issue(core.AdSpec{R: 300, D: 10, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return nodes[1].Has(ad.ID) }) {
		t.Fatal("never delivered")
	}
	if !waitFor(t, 2*time.Second, func() bool { return nodes[1].Stats().Duplicates > 0 }) {
		t.Error("no duplicates observed in a stable pair")
	}
}

func TestMalformedDatagramsCounted(t *testing.T) {
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}}, nil)
	// Throw garbage at the node's socket.
	conn, err := netDial(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		if _, err := conn.Write([]byte("garbage")); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, time.Second, func() bool { return nodes[0].Stats().Malformed >= 5 }) {
		t.Errorf("malformed count = %d", nodes[0].Stats().Malformed)
	}
}

func TestIssueValidation(t *testing.T) {
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}}, nil)
	if _, err := nodes[0].Issue(core.AdSpec{R: 0, D: 10}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	cfg := testConfig(9, geo.Point{})
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("second close errored: %v", err)
	}
}

func TestAddrAndAddPeer(t *testing.T) {
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}}, nil)
	if !strings.HasPrefix(nodes[0].Addr(), "127.0.0.1:") {
		t.Errorf("Addr = %q", nodes[0].Addr())
	}
	if err := nodes[0].AddPeer("not::an::addr"); err == nil {
		t.Error("bad peer accepted at runtime")
	}
}

// TestCloseConcurrent hammers Close from many goroutines: shutdown must be
// guarded so no pair of callers can double-close the done channel (a panic
// before the sync.Once fix).
func TestCloseConcurrent(t *testing.T) {
	n, err := New(testConfig(9, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = n.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Errorf("closer %d got %v, closer 0 got %v", i, err, errs[0])
		}
	}
}

// TestIssueDuplicateRaceRegression reproduces the Issue-vs-duplicate data
// race: Issue used to broadcast the cached ad pointer after releasing the
// lock, while a received duplicate merges into the same entry's R/D/Sketch.
// A flooder thread replays every cached ad with ever-larger R and D (forcing
// the merge writes) while the main thread issues; before the clone fix the
// race detector flags encode's unlocked reads against those writes.
func TestIssueDuplicateRaceRegression(t *testing.T) {
	// On a single CPU the two goroutines only interleave inside the
	// microsecond encode window when the issuer is descheduled there; a
	// near-permanent GC (every allocation pays an assist, and encode
	// allocates twice per broadcast) provides exactly those yield points.
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	cfg := testConfig(1, geo.Point{})
	// Keep every issued ad cached: evictions would refresh every entry's
	// probability under the lock, flushing the unlocked read out of the
	// race detector's shadow history and masking the bug.
	cfg.CacheK = 1024
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Ad IDs are predictable (issuer + sequence), so the flooder can
		// start merging duplicates of the newest ad the instant it appears
		// — while Issue is still encoding it for broadcast. Growing R and
		// D force the merge writes on every duplicate.
		grow := 10000.0
		next := uint32(0)
		var flood *ads.Advertisement
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n.Has(ads.ID{Issuer: 1, Seq: next}) {
				flood = &ads.Advertisement{
					ID: ads.ID{Issuer: 1, Seq: next}, Category: "petrol",
				}
				next++
			}
			if flood == nil {
				continue
			}
			grow++
			flood.R, flood.D = grow, grow
			data, err := (&batchFrame{Sender: 99, Ads: []*ads.Advertisement{flood}}).encode()
			if err != nil {
				t.Error(err)
				return
			}
			n.dispatch(data, "")
		}
	}()
	// A fat payload stretches the encode of each broadcast, widening the
	// window in which the flooder's merge can overlap it.
	text := strings.Repeat("x", 32*1024)
	for i := 0; i < 200; i++ {
		if _, err := n.Issue(core.AdSpec{R: 500, D: 9000, Category: "petrol", Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestIssueSkipsForgedIDs floods the node with an ad forged under its own
// issuer identity before it ever issues: Issue must skip the occupied
// sequence number instead of panicking on a duplicate cache insert.
func TestIssueSkipsForgedIDs(t *testing.T) {
	n, err := New(testConfig(7, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	for seq := uint32(0); seq < 3; seq++ {
		n.dispatch(batchDatagram(t, 99, geo.Point{X: 10}, &ads.Advertisement{
			ID: ads.ID{Issuer: 7, Seq: seq}, Origin: geo.Point{X: 10},
			IssuedAt: 0, R: 400, D: 9000, Category: "forged",
		}), "")
	}
	ad, err := n.Issue(core.AdSpec{R: 500, D: 60, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	if ad.ID.Seq < 3 {
		t.Errorf("issued seq %d collides with a forged ad", ad.ID.Seq)
	}
}

// TestSeenSetPruned checks the dedup set is bounded by live ads: once an ad
// expires, its ID is swept within a couple of rounds and Has reverts to
// false.
func TestSeenSetPruned(t *testing.T) {
	cfg := testConfig(3, geo.Point{})
	cfg.RoundTime = 20 * time.Millisecond
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	n.Start()
	ad, err := n.Issue(core.AdSpec{R: 400, D: 0.15, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	if n.Stats().SeenLive != 1 || !n.Has(ad.ID) {
		t.Fatalf("seen size %d after issue", n.Stats().SeenLive)
	}
	if !waitFor(t, 2*time.Second, func() bool { return n.Stats().SeenLive == 0 }) {
		t.Fatalf("seen set never pruned: size %d", n.Stats().SeenLive)
	}
	if n.Has(ad.ID) {
		t.Error("expired ad still reported by Has")
	}
	if n.Stats().SeenPruned == 0 {
		t.Error("no prunes counted")
	}
}

// writeFilterConn wraps the node's real socket and fails writes to selected
// destinations, so tests can exercise the per-peer send-health path.
type writeFilterConn struct {
	transport.PacketConn
	mu      sync.Mutex
	failFor map[string]bool
}

func (c *writeFilterConn) WriteTo(b []byte, to string) (int, error) {
	c.mu.Lock()
	bad := c.failFor[to]
	c.mu.Unlock()
	if bad {
		return 0, errTestSend
	}
	return c.PacketConn.WriteTo(b, to)
}

var errTestSend = errors.New("injected send failure")

// removePeer drops the peer keyed by its canonical address addr, reporting
// whether it existed.
func (n *Node) removePeer(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.peerIndex[addr]
	n.dropPeerLocked(addr)
	return ok
}

// TestPeerBackoffAndRemovePeer drives broadcasts against one healthy and one
// always-failing peer: the failing peer must trip into timed backoff (so it
// stops burning syscalls), recover for a retry after the window, and be
// removable at runtime.
func TestPeerBackoffAndRemovePeer(t *testing.T) {
	n, err := New(testConfig(1, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	n.failLimit, n.backoffBase, n.backoffMax = 2, 80*time.Millisecond, 200*time.Millisecond
	t.Cleanup(func() { _ = n.Close() })
	sink, err := New(testConfig(2, geo.Point{X: 50}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sink.Close() })
	sink.Start()

	const badAddr = "127.0.0.1:9" // discard port; the wrapper fails it anyway
	fc := &writeFilterConn{PacketConn: n.conn, failFor: map[string]bool{badAddr: true}}
	n.conn = fc
	if err := n.AddPeer(sink.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPeer(badAddr); err != nil {
		t.Fatal(err)
	}

	issue := func() {
		t.Helper()
		if _, err := n.Issue(core.AdSpec{R: 500, D: 60, Category: "petrol"}); err != nil {
			t.Fatal(err)
		}
	}
	issue() // failure 1
	issue() // failure 2 → backoff trips
	st := n.Stats()
	if st.SendErrors != 2 || st.PeerBackoffs != 1 {
		t.Fatalf("sendErrors=%d peerBackoffs=%d after two failures", st.SendErrors, st.PeerBackoffs)
	}
	var bad PeerHealth
	for _, p := range n.Peers() {
		if p.Addr == badAddr {
			bad = p
		}
	}
	if !bad.InBackoff || bad.Failures != 2 {
		t.Fatalf("bad peer health %+v not in backoff", bad)
	}
	if st.PeersLive != 1 {
		t.Errorf("PeersLive = %d with one peer in backoff", st.PeersLive)
	}

	issue() // bad peer skipped during backoff
	if got := n.Stats().SendErrors; got != 2 {
		t.Errorf("peer in backoff still hit the socket: sendErrors=%d", got)
	}
	time.Sleep(120 * time.Millisecond) // backoff window passes
	issue()                            // retried → fails again
	if got := n.Stats().SendErrors; got != 3 {
		t.Errorf("peer not retried after backoff: sendErrors=%d", got)
	}

	if !n.removePeer(badAddr) {
		t.Fatal("removePeer missed the failing peer")
	}
	if n.removePeer(badAddr) {
		t.Error("removePeer removed a peer twice")
	}
	if len(n.Peers()) != 1 {
		t.Fatalf("%d peers after removal", len(n.Peers()))
	}
	before := n.Stats().SendErrors
	issue()
	if got := n.Stats().SendErrors; got != before {
		t.Errorf("removed peer still addressed: sendErrors %d → %d", before, got)
	}
	if !waitFor(t, 2*time.Second, func() bool { return sink.Stats().Received > 0 }) {
		t.Error("healthy peer never received despite the sick neighbor")
	}
}

// netDial opens a plain UDP client socket toward addr.
func netDial(addr string) (*net.UDPConn, error) {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, a)
}

func TestLivePopularityRanking(t *testing.T) {
	// Three interested nodes in range: the ad's rank estimate should rise
	// as each hashes its ID in, and R should grow per Formula 7.
	pop := core.PopularityConfig{
		Enabled: true, F: 16, L: 32, SketchSeed: 5,
		RInc: 100, DInc: 0, RMax: 1000,
	}
	positions := []geo.Point{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 120, Y: 0}}
	nodes := cluster(t, positions, func(i int, c *Config) {
		c.Popularity = pop
		c.Interests = []string{"grocery"}
	})
	ad, err := nodes[0].Issue(core.AdSpec{R: 400, D: 10, Category: "grocery"})
	if err != nil {
		t.Fatal(err)
	}
	ok := waitFor(t, 3*time.Second, func() bool {
		for _, n := range nodes {
			for _, cached := range n.Cached() {
				if cached.ID == ad.ID && cached.Sketch != nil && cached.Sketch.Rank() >= 2 && cached.R > 400 {
					return true
				}
			}
		}
		return false
	})
	if !ok {
		t.Error("no live copy reached rank ≥ 2 with enlargement")
	}
}

func TestMovingNodePosition(t *testing.T) {
	// A PositionFunc wrapping a mobility model: the node's outgoing
	// frames carry the moving position, so a receiver goes in and out of
	// range over wall time.
	start := time.Now()
	mover := func(now time.Time) (geo.Point, geo.Vec) {
		elapsed := now.Sub(start).Seconds()
		return geo.Point{X: 1000 * elapsed, Y: 0}, geo.Vec{X: 1000, Y: 0} // 1 km/s: leaves range fast
	}
	epoch := time.Now()
	a, err := New(Config{
		ID: 1, ListenAddr: "127.0.0.1:0", Range: 250,
		Position: mover, Alpha: 0.5, Beta: 0.5,
		RoundTime: 30 * time.Millisecond, CacheK: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{
		ID: 2, ListenAddr: "127.0.0.1:0", Range: 250,
		Position: StaticPosition(geo.Point{X: 0, Y: 0}), Alpha: 0.5, Beta: 0.5,
		RoundTime: 30 * time.Millisecond, CacheK: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpoch(epoch)
	b.SetEpoch(epoch)
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	// After ~1 s the mover is 1000 m away; its gossip must be dropped by
	// B's virtual radio.
	time.Sleep(1200 * time.Millisecond)
	if _, err := a.Issue(core.AdSpec{R: 5000, D: 10, Category: "petrol"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if b.Stats().Received > 0 {
		t.Error("receiver accepted gossip from a far-away mover")
	}
	if b.Stats().OutOfRange == 0 {
		t.Error("no out-of-range drops recorded")
	}
}

func TestOpt1AnnulusOnLiveNodes(t *testing.T) {
	// With DIS enabled, a node deep inside the area gossips with a damped
	// probability: over a short window the central node broadcasts far less
	// than an annulus node. R=500, DIS=125 → annulus [375, 500].
	positions := []geo.Point{
		{X: 0, Y: 0},   // issuer, center
		{X: 60, Y: 0},  // central
		{X: 430, Y: 0}, // annulus — but out of radio range of the others...
	}
	// Keep everyone in radio range (overlay mode, Range=0) so only the
	// probability field differentiates them.
	nodes := cluster(t, positions, func(i int, c *Config) {
		c.Range = 0
		c.DIS = 125
		c.RoundTime = 25 * time.Millisecond
	})
	_, err := nodes[0].Issue(core.AdSpec{R: 500, D: 3, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second)
	central := nodes[1].Stats().Broadcasts
	annulus := nodes[2].Stats().Broadcasts
	if annulus < 5 {
		t.Fatalf("annulus node barely gossiped (%d)", annulus)
	}
	if central*3 > annulus {
		t.Errorf("central broadcasts %d not well below annulus %d", central, annulus)
	}
}

func TestClusterHelper(t *testing.T) {
	c, err := NewCluster(ChainConfigs(4, 180, 250, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	ad, err := c.Nodes[0].Issue(core.AdSpec{R: 1000, D: 20, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitAll(ad.ID, 3*time.Second) {
		t.Fatal("cluster never fully delivered")
	}
	if c.TotalStats().Sent == 0 {
		t.Error("no datagrams counted")
	}
	if err := c.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	bad := ChainConfigs(2, 100, 250, 40*time.Millisecond)
	bad[1].CacheK = 0
	if _, err := NewCluster(bad); err == nil {
		t.Error("invalid member accepted")
	}
}

func TestLiveCacheContention(t *testing.T) {
	// Two ads from opposite ends compete for a k=1 cache on the middle node:
	// the bound holds and the node still relays.
	cfgs := ChainConfigs(3, 150, 250, 30*time.Millisecond)
	for i := range cfgs {
		cfgs[i].CacheK = 1
	}
	c, err := NewCluster(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	adA, err := c.Nodes[0].Issue(core.AdSpec{R: 800, D: 10, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	adB, err := c.Nodes[2].Issue(core.AdSpec{R: 800, D: 10, Category: "grocery"})
	if err != nil {
		t.Fatal(err)
	}
	ok := waitFor(t, 3*time.Second, func() bool {
		return c.Nodes[1].Has(adA.ID) && c.Nodes[1].Has(adB.ID)
	})
	if !ok {
		t.Fatal("middle node never heard both ads")
	}
	for i, n := range c.Nodes {
		if got := len(n.Cached()); got > 1 {
			t.Errorf("node %d caches %d ads despite k=1", i, got)
		}
	}
}
