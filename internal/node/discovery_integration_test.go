package node

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/discovery"
	"instantad/internal/node/memnet"
	"instantad/internal/testutil"
)

// discoveryConfig returns a fast-beacon memnet node config at the given
// virtual position. No static peers: membership is discovery's job.
func discoveryConfig(sb *memnet.Switchboard, id uint32, pos geo.Point) Config {
	cfg := testConfig(id, pos)
	cfg.ListenAddr = "mem:"
	cfg.Transport = sb.Transport()
	cfg.BeaconInterval = 100 * time.Millisecond
	cfg.NeighborTTL = 350 * time.Millisecond
	return cfg
}

// gridPositions lays n points on a square grid with the given spacing.
func gridPositions(n int, spacing float64) []geo.Point {
	side := 1
	for side*side < n {
		side++
	}
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
	}
	return pts
}

// TestAddPeerDeduplicates pins the peer-identity contract: re-adding a peer
// — under the same or an equivalent spelling — is a no-op that neither grows
// the peer list (which would double every datagram toward it) nor resets the
// peer's accumulated send-health state.
func TestAddPeerDeduplicates(t *testing.T) {
	n, err := New(testConfig(1, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })

	sink, err := New(testConfig(2, geo.Point{X: 10}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sink.Close() })
	_, port, err := net.SplitHostPort(sink.Addr())
	if err != nil {
		t.Fatal(err)
	}

	if err := n.AddPeer(sink.Addr()); err != nil {
		t.Fatal(err)
	}
	// Seed some history so a reset would be visible.
	n.mu.Lock()
	n.peers[0].sent, n.peers[0].failures = 7, 3
	n.mu.Unlock()

	for _, spelling := range []string{
		sink.Addr(),
		"localhost:" + port, // resolves to the same canonical address
	} {
		if err := n.AddPeer(spelling); err != nil {
			t.Fatalf("re-add %q: %v", spelling, err)
		}
	}
	peers := n.Peers()
	if len(peers) != 1 {
		t.Fatalf("%d peer entries after re-adds, want 1: %+v", len(peers), peers)
	}
	if peers[0].Sent != 7 || peers[0].Failures != 3 {
		t.Errorf("re-add reset send health: %+v", peers[0])
	}
}

// TestClusterPartialFailureReleasesSockets binds a fixed port as cluster
// member 0 and poisons member 1 so NewCluster fails after the first socket
// is up: the constructor must close what it bound, leaving the port free.
func TestClusterPartialFailureReleasesSockets(t *testing.T) {
	// Grab a loopback port the OS considers free, then release it for the
	// cluster to bind by fixed address.
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().String()
	_ = probe.Close()

	cfgs := ChainConfigs(2, 100, 250, 40*time.Millisecond)
	cfgs[0].ListenAddr = addr
	cfgs[1].CacheK = 0 // invalid: New fails after member 0 bound
	if _, err := NewCluster(cfgs); err == nil {
		t.Fatal("invalid cluster accepted")
	}
	rebound, err := net.ListenUDP("udp", mustUDPAddr(t, addr))
	if err != nil {
		t.Fatalf("port still held after cluster construction failed: %v", err)
	}
	_ = rebound.Close()
}

func mustUDPAddr(t *testing.T, addr string) *net.UDPAddr {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestClusterCloseTwice checks Cluster.Close is safe to call repeatedly —
// the second call reports the same (nil) outcome instead of double-closing.
func TestClusterCloseTwice(t *testing.T) {
	c, err := NewCluster(ChainConfigs(3, 100, 250, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestDiscoveryConfigValidation covers the beacon-specific config checks.
func TestDiscoveryConfigValidation(t *testing.T) {
	mutations := map[string]func(*Config){
		"negative interval":  func(c *Config) { c.BeaconInterval = -time.Second },
		"ttl without beacon": func(c *Config) { c.NeighborTTL = time.Second },
		"seeds without beacon": func(c *Config) {
			c.Seeds = []string{"127.0.0.1:7001"}
		},
		"ttl below interval": func(c *Config) {
			c.BeaconInterval = time.Second
			c.NeighborTTL = 500 * time.Millisecond
		},
		"bad seed address": func(c *Config) {
			c.BeaconInterval = time.Second
			c.Seeds = []string{"not an address::"}
		},
	}
	for name, mutate := range mutations {
		cfg := testConfig(0, geo.Point{})
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDiscoveryConvergenceFromSingleSeed is the headline acceptance test: 60
// real nodes on an in-memory switchboard, no static peer lists, exactly one
// bootstrap contact — and every node must end up knowing all 59 in-range
// peers, purely through beacons, beacon-backs and relayed introductions.
// An ad issued afterwards must flood the discovered mesh edge to edge.
func TestDiscoveryConvergenceFromSingleSeed(t *testing.T) {
	const nNodes = 60
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	positions := gridPositions(nNodes, 20) // 8×8 grid, max diagonal ~198 m < range
	cfgs := make([]Config, nNodes)
	for i := range cfgs {
		cfgs[i] = discoveryConfig(sb, uint32(i), positions[i])
	}
	c, err := NewDiscoveryCluster(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()

	if !c.WaitNeighbors(nNodes-1, 15*time.Second) {
		worst, at := nNodes, -1
		for i, n := range c.Nodes {
			if got := n.NeighborCount(); got < worst {
				worst, at = got, i
			}
		}
		t.Fatalf("discovery never converged: node %d knows only %d/%d neighbors; cluster stats %+v",
			at, worst, nNodes-1, c.TotalStats())
	}
	// The peer sets must track the tables: full mesh, no duplicates.
	for i, n := range c.Nodes {
		if got := len(n.Peers()); got != nNodes-1 {
			t.Fatalf("node %d has %d peers after convergence, want %d", i, got, nNodes-1)
		}
	}
	st := c.TotalStats()
	t.Logf("converged: %d beacons sent, %d introductions relayed, %d neighbors expired",
		st.BeaconsSent, st.BeaconRelays, st.NeighborsExpired)
	if st.BeaconRelays == 0 {
		t.Error("converged without any relayed introductions — topology suspect")
	}

	// End to end: an ad from a corner floods the discovered mesh.
	ad, err := c.Nodes[nNodes-1].Issue(core.AdSpec{R: 1000, D: 30, Category: "petrol"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitAll(ad.ID, 10*time.Second) {
		t.Fatal("ad never reached every discovered node")
	}
}

// TestSweepKeepsRediscoveredPeer interleaves a TTL sweep with a beacon from
// the swept neighbor: the beacon lands between the sweep and the poll's
// membership update, re-adding the neighbor to the table as new while its
// peer entry is still present. The poll must not then drop the peer, or the
// table keeps a neighbor the peer set never regains.
func TestSweepKeepsRediscoveredPeer(t *testing.T) {
	n := idleNode(t, func(c *Config) { c.BeaconInterval = 100 * time.Millisecond })
	const addr = "mem:77"
	b := discovery.Beacon{ID: 7, Addr: addr}
	n.table.Observe(b, time.Now().Add(-time.Hour)) // silent past its TTL
	n.mu.Lock()
	n.addPeerLocked(addr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.fireDue() // sweeps, then waits for n.mu
	}()
	for !n.table.Empty() {
		time.Sleep(time.Millisecond)
	}
	if ev, _ := n.table.Observe(b, time.Now()); ev != discovery.New {
		t.Errorf("re-heard neighbor observed as %v, want New", ev)
	}
	n.addPeerLocked(addr) // handleBeacon's add, ahead of the poll
	n.mu.Unlock()
	<-done
	if _, ok := n.table.Get(7); !ok || len(n.Peers()) != 1 {
		t.Errorf("table holds the neighbor: %v; peers %v, want it too", ok, n.Peers())
	}
}

// TestRediscoveryIntroducedOncePerWindow pins the introduction rule with
// synthetic times: a neighbor first heard first-hand is introduced at once,
// and so is its first rediscovery within the window (it left range and came
// back). Heard as new again within the window (it expires under load), it is
// not: it owes one introduction, which goes out on the first beacon tick past
// the window as the bytes the neighbor itself last sent, if the table still
// holds it at the address they came from. A record past its window that owes
// nothing is forgotten.
func TestRediscoveryIntroducedOncePerWindow(t *testing.T) {
	n := idleNode(t, func(c *Config) { c.BeaconInterval = 100 * time.Millisecond })
	hood, err := n.transport.Listen("mem:88") // the neighborhood an introduction goes to
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hood.Close() })
	rx := testutil.NewReceiver(hood)
	n.mu.Lock()
	n.addPeerLocked("mem:88")
	n.mu.Unlock()
	window := introWindowTTLs * n.neighborTTL
	relays := func() uint64 { return n.Stats().BeaconRelays }
	beacon := func(x float64) []byte {
		data, err := discovery.Beacon{ID: 7, Addr: "mem:77", Pos: geo.Point{X: x}}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	introduce := func(at time.Time, x float64) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.introduceLocked(7, "mem:77", beacon(x), at)
	}
	record := func() (introRecord, bool) {
		n.mu.Lock()
		defer n.mu.Unlock()
		r, ok := n.introduced[7]
		return r, ok
	}
	t0 := time.Now()
	if !introduce(t0, 1) {
		t.Fatal("a first discovery was not introduced")
	}
	if !introduce(t0.Add(window/4), 2) {
		t.Fatal("the first rediscovery within the window was not introduced at once")
	}
	if introduce(t0.Add(window/2), 3) || introduce(t0.Add(window/2+time.Millisecond), 4) {
		t.Fatal("a further rediscovery within the window was introduced at once")
	}
	n.relayOwedIntroductions(t0.Add(window - time.Nanosecond))
	if r, _ := record(); r.owed == nil || relays() != 0 {
		t.Fatalf("before the window passed: record %+v, %d relays; want it owed and none sent", r, relays())
	}
	n.table.Observe(discovery.Beacon{ID: 7, Addr: "mem:77"}, time.Now())
	n.relayOwedIntroductions(t0.Add(window))
	if r, _ := record(); r.owed != nil || r.again || !r.at.Equal(t0.Add(window)) || relays() != 1 {
		t.Fatalf("at the window's end: record %+v, %d relays; want it paid at %v with one relay", r, relays(), t0.Add(window))
	}
	if data, _, err := rx.Next(5 * time.Second); err != nil {
		t.Fatalf("the owed introduction never arrived: %v", err)
	} else if !bytes.Equal(data, beacon(4)) {
		t.Fatal("the owed introduction was not the neighbor's last first-hand beacon")
	}
	n.relayOwedIntroductions(t0.Add(2 * window))
	if _, ok := record(); ok {
		t.Fatal("a record past its window that owes nothing was kept")
	}
	t1 := t0.Add(2*window + time.Millisecond)
	if !introduce(t1, 5) || !introduce(t1.Add(time.Millisecond), 5) || introduce(t1.Add(2*time.Millisecond), 5) {
		t.Fatal("after the record was forgotten, a discovery or its first rediscovery was not introduced at once, or a second rediscovery was")
	}
	n.table.Sweep(time.Now().Add(time.Hour)) // the neighbor expires again
	n.relayOwedIntroductions(t1.Add(window))
	if r, _ := record(); r.owed != nil || relays() != 1 {
		t.Fatalf("a neighbor gone from the table: record %+v, %d relays; want the debt dropped, nothing sent", r, relays())
	}
}

// TestDiscoveryReencounterReforms moves one node of a converged cluster out
// of everyone's range until both sides have expired each other, then back.
// Out of range, the mover's table empties and it knocks on its seed again;
// back in range, the seed hears it first-hand as new and its introduction is
// the only way the rest meet the mover again. That is the mover's first
// rediscovery within the seed's introduction window, which goes out at
// once: the mesh must re-form within a few beacon intervals, not wait for
// the window to pass.
func TestDiscoveryReencounterReforms(t *testing.T) {
	const nNodes = 8
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	positions := gridPositions(nNodes, 20)
	home := positions[nNodes-1]
	var at atomic.Pointer[geo.Point]
	at.Store(&home)
	cfgs := make([]Config, nNodes)
	for i := range cfgs {
		cfgs[i] = discoveryConfig(sb, uint32(i), positions[i])
	}
	cfgs[nNodes-1].Position = func(time.Time) (geo.Point, geo.Vec) { return *at.Load(), geo.Vec{} }
	c, err := NewDiscoveryCluster(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	if !c.WaitNeighbors(nNodes-1, 15*time.Second) {
		t.Fatalf("cluster never converged; stats %+v", c.TotalStats())
	}
	mover := c.Nodes[nNodes-1]
	moverID := uint32(nNodes - 1)
	knowsMover := func() int {
		k := 0
		for _, n := range c.Nodes[:nNodes-1] {
			if _, ok := n.table.Get(moverID); ok {
				k++
			}
		}
		return k
	}

	away := geo.Point{X: 10000}
	at.Store(&away)
	if !waitFor(t, 10*time.Second, func() bool { return mover.NeighborCount() == 0 && knowsMover() == 0 }) {
		t.Fatalf("out of range, the mover still knows %d neighbors and %d know it", mover.NeighborCount(), knowsMover())
	}

	at.Store(&home)
	back := time.Now()
	ttl, interval := cfgs[0].NeighborTTL, cfgs[0].BeaconInterval
	limit := ttl + 10*interval
	reformed := waitFor(t, 10*time.Second, func() bool {
		return mover.NeighborCount() == nNodes-1 && knowsMover() == nNodes-1
	})
	elapsed := time.Since(back)
	t.Logf("mesh re-formed %v after the mover came back", elapsed)
	if !reformed {
		t.Fatalf("mesh never re-formed: the mover knows %d neighbors and %d know it", mover.NeighborCount(), knowsMover())
	}
	if elapsed > limit {
		t.Errorf("mesh re-formed %v after the mover came back, want within %v (TTL + 10 beacon intervals)", elapsed, limit)
	}
}

// TestDiscoveryChurnAgesOutDeadNode kills one node mid-run: within one
// neighbor TTL (plus a sweep tick of slack) every survivor must have dropped
// it from both the neighbor table and the peer set, and counted the expiry.
func TestDiscoveryChurnAgesOutDeadNode(t *testing.T) {
	const nNodes = 20
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	positions := gridPositions(nNodes, 20)
	cfgs := make([]Config, nNodes)
	for i := range cfgs {
		cfgs[i] = discoveryConfig(sb, uint32(i), positions[i])
	}
	c, err := NewDiscoveryCluster(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	if !c.WaitNeighbors(nNodes-1, 15*time.Second) {
		t.Fatalf("cluster never converged before the churn; stats %+v", c.TotalStats())
	}

	victim := c.Nodes[7]
	victimID, victimAddr := uint32(7), victim.Addr()
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	killed := time.Now()

	ttl := cfgs[7].NeighborTTL
	gone := waitFor(t, ttl+2*time.Second, func() bool {
		for i, n := range c.Nodes {
			if i == 7 {
				continue
			}
			if _, known := n.table.Get(victimID); known {
				return false
			}
			for _, p := range n.Peers() {
				if p.Addr == victimAddr {
					return false
				}
			}
		}
		return true
	})
	elapsed := time.Since(killed)
	if !gone {
		t.Fatalf("dead node still known somewhere after %v (TTL %v)", elapsed, ttl)
	}
	// One sweep-tick of slack on top of the TTL: the gossip loop sweeps
	// every RoundTime/5.
	if slack := ttl + cfgs[7].RoundTime; elapsed > slack+500*time.Millisecond {
		t.Errorf("age-out took %v, want within ~%v", elapsed, slack)
	}
	var expired uint64
	for i, n := range c.Nodes {
		if i != 7 {
			expired += n.Stats().NeighborsExpired
		}
	}
	if expired < uint64(nNodes-1) {
		t.Errorf("only %d neighbor expiries counted across %d survivors", expired, nNodes-1)
	}
}

// TestDiscoveryIsolationRecovery checks the seed's second job: a node whose
// entire neighborhood aged out goes back to beaconing its configured seeds,
// so when the seed restarts on the same address the mesh re-forms.
func TestDiscoveryIsolationRecovery(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	seedCfg := discoveryConfig(sb, 100, geo.Point{})
	seedCfg.ListenAddr = "mem:seed"
	seed, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := New(func() Config {
		cfg := discoveryConfig(sb, 101, geo.Point{X: 10})
		cfg.Seeds = []string{"mem:seed"}
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = follower.Close() })
	seed.Start()
	follower.Start()
	if !waitFor(t, 5*time.Second, func() bool { return follower.NeighborCount() == 1 }) {
		t.Fatal("follower never found the seed")
	}

	// Seed dies; the follower's world empties.
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		return follower.NeighborCount() == 0 && len(follower.Peers()) == 0
	}) {
		t.Fatalf("dead seed never aged out: %d neighbors, %d peers",
			follower.NeighborCount(), len(follower.Peers()))
	}

	// Seed restarts on the same address (new identity, same door): the
	// isolated follower must rediscover it without any intervention.
	rebornCfg := discoveryConfig(sb, 102, geo.Point{})
	rebornCfg.ListenAddr = "mem:seed"
	reborn, err := New(rebornCfg)
	if err != nil {
		t.Fatalf("seed address not rebindable: %v", err)
	}
	t.Cleanup(func() { _ = reborn.Close() })
	reborn.Start()
	if !waitFor(t, 5*time.Second, func() bool {
		nb, ok := follower.table.Get(102)
		return ok && nb.Addr == "mem:seed" && reborn.NeighborCount() == 1
	}) {
		t.Fatalf("isolated follower never recovered via its seed; follower stats %+v", follower.Stats())
	}
}

// TestDiscoveryRangePartition runs two clumps far beyond radio range over
// one medium that carries every datagram: each clump converges internally,
// no node learns a far one, and the seed's virtual radio counts the
// cross-clump beacons it refused — the bootstrap knocking of nodes that can
// never reach their seed.
func TestDiscoveryRangePartition(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Clump A near the origin, clump B 10 km east; everyone seeds on a0.
	positions := []geo.Point{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 0, Y: 30}, // clump A
		{X: 10000, Y: 0}, {X: 10030, Y: 0}, {X: 10000, Y: 30}, // clump B
	}
	nodes := make([]*Node, len(positions))
	epoch := time.Now()
	var seedAddr string
	for i, pos := range positions {
		cfg := discoveryConfig(sb, uint32(i), pos)
		if i > 0 {
			cfg.Seeds = []string{seedAddr}
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetEpoch(epoch)
		if i == 0 {
			seedAddr = n.Addr()
		}
		nodes[i] = n
		t.Cleanup(func() { _ = n.Close() })
	}
	for _, n := range nodes {
		n.Start()
	}

	// Clump A (including the seed) must fully interconnect.
	if !waitFor(t, 5*time.Second, func() bool {
		return nodes[0].NeighborCount() == 2 && nodes[1].NeighborCount() == 2 && nodes[2].NeighborCount() == 2
	}) {
		t.Fatalf("clump A never converged: %d/%d/%d neighbors",
			nodes[0].NeighborCount(), nodes[1].NeighborCount(), nodes[2].NeighborCount())
	}
	// Clump B's beacons toward the far seed die at the seed's radio: nobody
	// there learns anybody, and the seed has counted the refusals.
	time.Sleep(300 * time.Millisecond)
	for i := 3; i < 6; i++ {
		if got := nodes[i].NeighborCount(); got != 0 {
			t.Errorf("isolated node %d discovered %d neighbors across a 10 km gap", i, got)
		}
	}
	if st := nodes[0].Stats(); st.OutOfRange == 0 {
		t.Errorf("the seed accepted every beacon despite the partition: %+v", st)
	}
}

// TestDiscoveryDisabledIgnoresBeacons pins the legacy mode: a node without a
// beacon interval consumes beacon frames without growing state or failing —
// discovery traffic on a shared port cannot disturb a static deployment.
func TestDiscoveryDisabledIgnoresBeacons(t *testing.T) {
	nodes := cluster(t, []geo.Point{{X: 0, Y: 0}}, nil)
	n := nodes[0]
	conn, err := netDial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, ok := func() ([]byte, bool) {
		m, err := New(func() Config {
			cfg := testConfig(50, geo.Point{X: 5})
			cfg.BeaconInterval = time.Hour // discovery on, but never fires
			return cfg
		}())
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		return m.encodeBeacon()
	}()
	if !ok {
		t.Fatal("beacon encode failed")
	}
	peersBefore := len(n.Peers())
	for i := 0; i < 3; i++ {
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	// Prove the frames were consumed (not queued) by pushing a real ad
	// through afterwards.
	if _, err := conn.Write(validDatagram(t, 77)); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return n.Stats().Received == 1 }) {
		t.Fatalf("ad after beacons never processed: %+v", n.Stats())
	}
	if n.NeighborCount() != 0 || len(n.Peers()) != peersBefore {
		t.Errorf("static node grew state from beacons: %d neighbors, %d peers",
			n.NeighborCount(), len(n.Peers()))
	}
	if n.Stats().Malformed != 0 {
		t.Errorf("well-formed beacons counted as malformed: %+v", n.Stats())
	}
}

// TestDiscoveryStatsFlow spot-checks the new counters on a live pair.
func TestDiscoveryStatsFlow(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		discoveryConfig(sb, 0, geo.Point{}),
		discoveryConfig(sb, 1, geo.Point{X: 10}),
	}
	// A deliberately skewed epoch on one side must be noticed, not fatal.
	c, err := NewDiscoveryCluster(cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Nodes[1].SetEpoch(time.Now().Add(-time.Hour))
	c.Start()
	if !c.WaitNeighbors(1, 5*time.Second) {
		t.Fatal("pair never discovered each other")
	}
	st := c.TotalStats()
	if st.BeaconsSent == 0 || st.BeaconsRecv == 0 {
		t.Errorf("beacon counters silent: %+v", st)
	}
	if st.EpochSkew == 0 {
		t.Errorf("hour-wide epoch skew unnoticed: %+v", st)
	}
	if st.NeighborsLive != 2 {
		t.Errorf("NeighborsLive = %d across a discovered pair", st.NeighborsLive)
	}
}
