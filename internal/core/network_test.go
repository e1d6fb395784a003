package core

import (
	"math"
	"slices"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// testConfig returns a small-scale protocol config: R and D chosen per test
// via AdSpec; units scaled for a 500 m radius.
func testConfig(p Protocol) Config {
	return Config{
		Protocol:  p,
		Params:    ProbParams{Alpha: 0.5, Beta: 0.5}, // auto units: R/10, D/10
		RoundTime: 5,
		DIS:       125,
		CacheK:    10,
	}
}

func testRadio() radio.Config {
	cfg := radio.DefaultConfig()
	return cfg
}

// staticNet builds a network of static peers at the given points.
func staticNet(t *testing.T, cfg Config, pts []geo.Point) (*sim.Simulator, *Network) {
	t.Helper()
	s := sim.New()
	models := make([]mobility.Model, len(pts))
	for i, p := range pts {
		models[i] = mobility.NewStatic(p)
	}
	n, err := New(s, testRadio(), models, cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

// countingObserver tallies protocol events.
type countingObserver struct {
	BaseObserver
	issues     int
	broadcasts int
	bytes      int
	firsts     map[int]float64 // peer → first-receive time
	duplicates int
	expires    int
	evicts     int
}

func newCountingObserver() *countingObserver {
	return &countingObserver{firsts: make(map[int]float64)}
}

func (o *countingObserver) OnIssue(int, *ads.Advertisement, float64) { o.issues++ }
func (o *countingObserver) OnBroadcast(peer int, id ads.ID, b int, t float64) {
	o.broadcasts++
	o.bytes += b
}
func (o *countingObserver) OnFirstReceive(peer int, ad *ads.Advertisement, t float64) {
	o.firsts[peer] = t
}
func (o *countingObserver) OnDuplicate(int, ads.ID, float64) { o.duplicates++ }
func (o *countingObserver) OnExpire(int, ads.ID, float64)    { o.expires++ }
func (o *countingObserver) OnEvict(int, ads.ID, float64)     { o.evicts++ }

// line returns n points spaced dx apart on the x axis.
func line(n int, dx float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * dx, Y: 0}
	}
	return pts
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(Gossip)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Protocol = Protocol(99) },
		func(c *Config) { c.Params.Alpha = 2 },
		func(c *Config) { c.RoundTime = 0 },
		func(c *Config) { c.CacheK = 0 },
		func(c *Config) { c.DIS = -5 },
		func(c *Config) { c.Protocol = GossipOpt1; c.DIS = 0 },
		func(c *Config) { c.Popularity = PopularityConfig{Enabled: true, F: -1} },
		func(c *Config) { c.Popularity = PopularityConfig{Enabled: true, F: 4, L: 99} },
	}
	for i, mutate := range mutations {
		c := testConfig(Gossip)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestValidateRejectsNonFinite: every comparison with NaN is false, so a guard
// written `x <= 0 || x >= 1` accepts it. Each float field is tried with NaN
// and both infinities.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config) *float64{
		"Alpha":          func(c *Config) *float64 { return &c.Params.Alpha },
		"Beta":           func(c *Config) *float64 { return &c.Params.Beta },
		"DistUnit":       func(c *Config) *float64 { return &c.Params.DistUnit },
		"TimeUnit":       func(c *Config) *float64 { return &c.Params.TimeUnit },
		"RoundTime":      func(c *Config) *float64 { return &c.RoundTime },
		"DIS":            func(c *Config) *float64 { return &c.DIS },
		"AsyncMeanDelay": func(c *Config) *float64 { return &c.AsyncMeanDelay },
		"AsyncTimeout":   func(c *Config) *float64 { return &c.AsyncTimeout },
		"RInc":           func(c *Config) *float64 { return &c.Popularity.RInc },
		"DInc":           func(c *Config) *float64 { return &c.Popularity.DInc },
		"RMax":           func(c *Config) *float64 { return &c.Popularity.RMax },
		"DMax":           func(c *Config) *float64 { return &c.Popularity.DMax },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, proto := range []Protocol{Gossip, GossipOpt} {
				c := testConfig(proto)
				c.Popularity = PopularityConfig{Enabled: true, F: 4, L: 16}
				if err := c.Validate(); err != nil {
					t.Fatalf("base config rejected: %v", err)
				}
				*field(&c) = v
				if err := c.Validate(); err == nil {
					t.Errorf("%v: %s = %v accepted", proto, name, v)
				}
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, p := range []ProbParams{
			{Alpha: v, Beta: 0.5}, {Alpha: 0.5, Beta: v},
			{Alpha: 0.5, Beta: 0.5, DistUnit: v}, {Alpha: 0.5, Beta: 0.5, TimeUnit: v},
		} {
			if err := p.Validate(); err == nil {
				t.Errorf("ProbParams case %d with %v accepted", i, v)
			}
		}
	}
}

func TestProtocolStringAndParse(t *testing.T) {
	for _, p := range Protocols() {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("roundtrip %v: got %v, err %v", p, got, err)
		}
	}
	if _, err := ParseProtocol("nope"); err == nil {
		t.Error("bad name accepted")
	}
	if s := Protocol(99).String(); s != "Protocol(99)" {
		t.Errorf("unknown String = %q", s)
	}
}

func TestNewValidation(t *testing.T) {
	s := sim.New()
	if _, err := New(s, testRadio(), nil, testConfig(Gossip), rng.New(1)); err == nil {
		t.Error("no peers accepted")
	}
	bad := testConfig(Gossip)
	bad.RoundTime = -1
	models := []mobility.Model{mobility.NewStatic(geo.Point{})}
	if _, err := New(s, testRadio(), models, bad, rng.New(1)); err == nil {
		t.Error("bad config accepted")
	}
}

func TestStartTwicePanics(t *testing.T) {
	_, n := staticNet(t, testConfig(Gossip), line(2, 100))
	n.Start()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	n.Start()
}

func TestIssueAdErrors(t *testing.T) {
	s, n := staticNet(t, testConfig(Gossip), line(2, 100))
	_ = s
	if _, err := n.IssueAd(7, AdSpec{R: 500, D: 100}); err == nil {
		t.Error("unknown issuer accepted")
	}
	if _, err := n.IssueAd(0, AdSpec{R: 0, D: 100}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestGossipPropagatesAlongLine(t *testing.T) {
	// 5 static peers 200 m apart (range 250 m → chain topology). An ad
	// issued at one end must reach the far end via multi-hop gossip.
	cfg := testConfig(Gossip)
	s, n := staticNet(t, cfg, line(5, 200))
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	s.Schedule(1, func() {
		if _, err := n.IssueAd(0, AdSpec{R: 1000, D: 600, Category: "petrol"}); err != nil {
			t.Errorf("IssueAd: %v", err)
		}
	})
	s.Run(120)
	for i := 1; i < 5; i++ {
		if _, ok := obs.firsts[i]; !ok {
			t.Errorf("peer %d never received the ad", i)
		}
	}
	if obs.issues != 1 {
		t.Errorf("issues = %d", obs.issues)
	}
	if obs.broadcasts == 0 || obs.bytes == 0 {
		t.Error("no broadcasts observed")
	}
}

func TestGossipDeliveryOrderFollowsDistance(t *testing.T) {
	cfg := testConfig(Gossip)
	s, n := staticNet(t, cfg, line(5, 200))
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 1000, D: 600}) })
	s.Run(120)
	if obs.firsts[1] > obs.firsts[4] {
		t.Errorf("nearer peer received later: %v vs %v", obs.firsts[1], obs.firsts[4])
	}
}

func TestAdExpiresEverywhere(t *testing.T) {
	cfg := testConfig(Gossip)
	s, n := staticNet(t, cfg, line(4, 150))
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(1, func() { issued, _ = n.IssueAd(0, AdSpec{R: 800, D: 60}) })
	s.Run(300)
	for i := 0; i < n.NumPeers(); i++ {
		if n.Peer(i).Cache().Get(issued.ID) != nil {
			t.Errorf("peer %d still caches the expired ad", i)
		}
	}
	if obs.expires == 0 {
		t.Error("no expiry events observed")
	}
	// No gossip may survive past D: check no broadcasts after issue+D+round.
	st := n.Channel().Stats()
	if st.Broadcasts == 0 {
		t.Error("no frames at all")
	}
}

func TestNoBroadcastsAfterExpiry(t *testing.T) {
	cfg := testConfig(Gossip)
	s, n := staticNet(t, cfg, line(4, 150))
	var lastBroadcast float64
	obs := &funcObserver{onBroadcast: func(_ int, _ ads.ID, _ int, tt float64) { lastBroadcast = tt }}
	n.SetObserver(obs)
	n.Start()
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 800, D: 60}) })
	s.Run(600)
	// Entries are pruned on the round after expiry; allow one round of slack.
	if lastBroadcast > 1+60+cfg.RoundTime {
		t.Errorf("broadcast at %v, after expiry deadline", lastBroadcast)
	}
}

// funcObserver adapts closures to Observer.
type funcObserver struct {
	BaseObserver
	onBroadcast func(int, ads.ID, int, float64)
	onFirst     func(int, *ads.Advertisement, float64)
}

func (o *funcObserver) OnBroadcast(p int, id ads.ID, b int, t float64) {
	if o.onBroadcast != nil {
		o.onBroadcast(p, id, b, t)
	}
}
func (o *funcObserver) OnFirstReceive(p int, ad *ads.Advertisement, t float64) {
	if o.onFirst != nil {
		o.onFirst(p, ad, t)
	}
}

func TestFloodingReachesAreaAndRespectsRadius(t *testing.T) {
	// Peers at 0,200,…,1200 m; ad with R=500 issued by peer 0. Peers within
	// ~500+250 m can hear a boundary relay; far peers must stay dark because
	// out-of-radius peers do not relay.
	cfg := testConfig(Flooding)
	s, n := staticNet(t, cfg, line(7, 200))
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 500, D: 300}) })
	s.Run(60)
	// Peers 1 (200), 2 (400) are inside; peer 3 (600) hears peer 2's relay.
	for i := 1; i <= 3; i++ {
		if _, ok := obs.firsts[i]; !ok {
			t.Errorf("peer %d should have received", i)
		}
	}
	// Peer 3 is outside the radius, so it does not relay: peers 5 (1000 m)
	// and 6 (1200 m) can never hear the ad (peer 4 at 800 m is within range
	// 250 of no relaying peer: nearest relayer is peer 2 at 400 m → 400 m
	// gap; it must stay dark too).
	for i := 4; i <= 6; i++ {
		if _, ok := obs.firsts[i]; ok {
			t.Errorf("peer %d received despite radius restriction", i)
		}
	}
}

func TestFloodingIssuerKeepsBroadcasting(t *testing.T) {
	cfg := testConfig(Flooding)
	s, n := staticNet(t, cfg, line(2, 100))
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	s.Schedule(0, func() { _, _ = n.IssueAd(0, AdSpec{R: 500, D: 100}) })
	s.Run(99)
	// D=100 → ~20 cycles of Δt=5. Issuer broadcasts every cycle; peer 1
	// relays each.
	if obs.broadcasts < 30 {
		t.Errorf("broadcasts = %d, want ≥ 30 over 20 cycles", obs.broadcasts)
	}
	// Radius collapses at age D: cycles stop.
	before := obs.broadcasts
	s.Run(300)
	if obs.broadcasts > before+2 {
		t.Errorf("flooding continued after expiry: %d → %d", before, obs.broadcasts)
	}
}

func TestOpt2PostponementReducesMessages(t *testing.T) {
	// A dense static clump: everyone hears everyone. Opt-2 must produce
	// fewer broadcasts than pure gossiping over the same interval.
	pts := make([]geo.Point, 12)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i%4) * 40, Y: float64(i/4) * 40}
	}
	run := func(p Protocol) int {
		cfg := testConfig(p)
		s, n := staticNet(t, cfg, pts)
		obs := newCountingObserver()
		n.SetObserver(obs)
		n.Start()
		s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 500, D: 400}) })
		s.Run(300)
		for i := range pts {
			if _, ok := obs.firsts[i]; !ok && i != 0 {
				t.Errorf("%v: peer %d never received", p, i)
			}
		}
		return obs.broadcasts
	}
	pure := run(Gossip)
	opt2 := run(GossipOpt2)
	if opt2 >= pure {
		t.Errorf("opt2 broadcasts %d not below pure %d", opt2, pure)
	}
	if float64(opt2) > 0.8*float64(pure) {
		t.Errorf("opt2 %d should be well below pure %d in a dense clump", opt2, pure)
	}
}

func TestOpt1CentralPeersQuiet(t *testing.T) {
	// Static peers at the center vs in the annulus of a 500 m area with
	// DIS=125: central peers must broadcast far less often.
	cfg := testConfig(GossipOpt1)
	pts := []geo.Point{
		{X: 0, Y: 0},    // issuer, center
		{X: 100, Y: 0},  // central (relay hop)
		{X: 200, Y: 0},  // central (relay hop)
		{X: 430, Y: 0},  // annulus [≈375, 500]
		{X: 460, Y: 30}, // annulus
	}
	s, n := staticNet(t, cfg, pts)
	perPeer := make([]int, len(pts))
	obs := &funcObserver{onBroadcast: func(p int, _ ads.ID, _ int, _ float64) { perPeer[p]++ }}
	n.SetObserver(obs)
	n.Start()
	// D=900 but observe only the first 400 s, while R_t ≈ R and the annulus
	// has not yet migrated inward over the probe positions.
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 500, D: 900}) })
	s.Run(400)
	central := perPeer[1] + perPeer[2]
	annulus := perPeer[3] + perPeer[4]
	if annulus == 0 {
		t.Fatal("annulus peers never broadcast")
	}
	if central >= annulus/4 {
		t.Errorf("central broadcasts %d not well below annulus %d", central, annulus)
	}
}

func TestCacheEvictionKeepsHigherProbabilityAd(t *testing.T) {
	// k=1 cache: a peer holding a far-away ad replaces it when a
	// higher-probability (nearer) ad arrives.
	cfg := testConfig(Gossip)
	cfg.CacheK = 1
	pts := []geo.Point{
		{X: 0, Y: 0},   // peer 0: issues ad A (origin here)
		{X: 200, Y: 0}, // peer 1: the observed cache
		{X: 400, Y: 0}, // peer 2: issues ad B (origin here)
	}
	s, n := staticNet(t, cfg, pts)
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	var adA, adB *ads.Advertisement
	// Ad A's area barely covers peer 1 (distance 200 of R=220); ad B's area
	// covers it comfortably (distance 200 of R=800) → B has higher P at
	// peer 1.
	s.Schedule(1, func() { adA, _ = n.IssueAd(0, AdSpec{R: 220, D: 600}) })
	s.Schedule(30, func() { adB, _ = n.IssueAd(2, AdSpec{R: 800, D: 600}) })
	s.Run(200)
	c := n.Peer(1).Cache()
	if c.Get(adB.ID) == nil {
		t.Error("peer 1 lost the high-probability ad B")
	}
	if c.Get(adA.ID) != nil {
		t.Error("peer 1 kept the low-probability ad A despite k=1")
	}
	if obs.evicts == 0 {
		t.Error("no eviction observed")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int) {
		s := sim.New()
		models := make([]mobility.Model, 30)
		r := rng.New(7)
		for i := range models {
			m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
				Field: geo.NewRect(800, 800), SpeedMean: 10, SpeedDelta: 5,
				Pause: 5, Horizon: 400,
			}, r.SplitIndex("m", i))
			if err != nil {
				t.Fatal(err)
			}
			models[i] = m
		}
		n, err := New(s, testRadio(), models, testConfig(GossipOpt), rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		obs := newCountingObserver()
		n.SetObserver(obs)
		n.Start()
		s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 400, D: 200}) })
		s.Run(400)
		return n.Channel().Stats().Broadcasts, len(obs.firsts)
	}
	b1, f1 := run()
	b2, f2 := run()
	if b1 != b2 || f1 != f2 {
		t.Errorf("runs diverged: (%d,%d) vs (%d,%d)", b1, f1, b2, f2)
	}
}

func TestPeerAccessors(t *testing.T) {
	_, n := staticNet(t, testConfig(Gossip), line(2, 100))
	p := n.Peer(1)
	if p.id != 1 {
		t.Errorf("id = %d", p.id)
	}
	if p.userID == n.Peer(0).userID {
		t.Error("user IDs collide")
	}
	p.SetInterests("petrol", "grocery")
	if want := []string{"grocery", "petrol"}; !slices.Equal(p.interests, want) {
		t.Errorf("interest set %q, want %q", p.interests, want)
	}
	ad := &ads.Advertisement{Category: "grocery", R: 1, D: 1}
	if !ad.MatchesAny(p.interests) {
		t.Error("Matches failed on matching category")
	}
	ad.Category = "parking"
	if ad.MatchesAny(p.interests) {
		t.Error("Matches succeeded on non-matching category")
	}
	if p.Position() != (geo.Point{X: 100, Y: 0}) {
		t.Errorf("Position = %v", p.Position())
	}
	if n.NumPeers() != 2 {
		t.Errorf("NumPeers = %d", n.NumPeers())
	}
	if n.Channel() == nil {
		t.Error("nil accessors")
	}
	if n.Config().Protocol != Gossip {
		t.Error("Config accessor wrong")
	}
}

func TestSetObserverNilResets(t *testing.T) {
	s, n := staticNet(t, testConfig(Gossip), line(2, 100))
	n.SetObserver(nil) // must not panic on use
	n.Start()
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 400, D: 50}) })
	s.Run(100)
}

func TestStoreAndForwardAcrossPartition(t *testing.T) {
	// A carrier moves from an isolated issuer toward an isolated receiver:
	// only Store & Forward gossip can bridge the partition.
	s := sim.New()
	issuerPos := geo.Point{X: 0, Y: 0}
	receiverPos := geo.Point{X: 2000, Y: 0}
	carrier := newShuttle(issuerPos, receiverPos, 20) // 20 m/s shuttle
	models := []mobility.Model{
		mobility.NewStatic(issuerPos),
		mobility.NewStatic(receiverPos),
		carrier,
	}
	cfg := testConfig(Gossip)
	n, err := New(s, testRadio(), models, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	// Large R so the carrier keeps gossiping the whole way.
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 3000, D: 1000}) })
	s.Run(1000)
	if _, ok := obs.firsts[1]; !ok {
		t.Error("receiver across the partition never got the ad")
	}
}

// newShuttle returns a model bouncing between a and b at the given speed.
func newShuttle(a, b geo.Point, speed float64) mobility.Model {
	return shuttleModel{a: a, b: b, speed: speed}
}

type shuttleModel struct {
	a, b  geo.Point
	speed float64
}

func (m shuttleModel) period() float64 { return m.a.Dist(m.b) / m.speed }

func (m shuttleModel) Position(t float64) geo.Point {
	if t < 0 {
		return m.a
	}
	p := m.period()
	phase := t / p
	k := int(phase)
	f := phase - float64(k)
	if k%2 == 0 {
		return m.a.Lerp(m.b, f)
	}
	return m.b.Lerp(m.a, f)
}

func (m shuttleModel) Velocity(t float64) geo.Vec {
	p := m.period()
	d := m.b.Sub(m.a)
	l := d.Len()
	dir := geo.Vec{X: d.X / l, Y: d.Y / l}.Scale(m.speed)
	if int(t/p)%2 == 1 {
		return dir.Scale(-1)
	}
	return dir
}

func TestEvictionPolicies(t *testing.T) {
	// Same two-ad overflow as TestCacheEvictionKeepsHigherProbabilityAd, but
	// under FIFO the *older* ad is evicted regardless of probability.
	cfg := testConfig(Gossip)
	cfg.CacheK = 1
	cfg.Eviction = EvictOldestFirst
	pts := []geo.Point{
		{X: 0, Y: 0},
		{X: 200, Y: 0},
		{X: 400, Y: 0},
	}
	s, n := staticNet(t, cfg, pts)
	n.Start()
	var adA, adB *ads.Advertisement
	s.Schedule(1, func() { adA, _ = n.IssueAd(0, AdSpec{R: 800, D: 600}) })
	// A's issuer goes offline once A has spread (the paper's issue-then-
	// vanish scenario). After B evicts A from every remaining cache nobody
	// can re-gossip A, so the FIFO outcome no longer depends on which ad a
	// late round happens to rebroadcast last.
	s.Schedule(5, func() {
		if err := n.SetPeerOnline(0, false); err != nil {
			t.Errorf("SetPeerOnline: %v", err)
		}
	})
	s.Schedule(30, func() { adB, _ = n.IssueAd(2, AdSpec{R: 220, D: 600}) })
	s.Run(200)
	c := n.Peer(1).Cache()
	// FIFO keeps the newer B even though A has the higher probability.
	if c.Get(adB.ID) == nil || c.Get(adA.ID) != nil {
		t.Errorf("FIFO eviction wrong: A cached=%v B cached=%v",
			c.Get(adA.ID) != nil, c.Get(adB.ID) != nil)
	}
}

func TestEvictionRandomRuns(t *testing.T) {
	cfg := testConfig(Gossip)
	cfg.CacheK = 1
	cfg.Eviction = EvictRandomEntry
	pts := []geo.Point{{X: 0, Y: 0}, {X: 150, Y: 0}, {X: 300, Y: 0}}
	s, n := staticNet(t, cfg, pts)
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 800, D: 300}) })
	s.Schedule(20, func() { _, _ = n.IssueAd(2, AdSpec{R: 800, D: 300}) })
	s.Run(150)
	if obs.evicts == 0 {
		t.Error("random eviction never fired under k=1 contention")
	}
	// Every peer still holds exactly one ad (cache bound respected).
	for i := 0; i < n.NumPeers(); i++ {
		if n.Peer(i).Cache().Len() > 1 {
			t.Errorf("peer %d cache exceeds k=1", i)
		}
	}
}

func TestEvictionPolicyValidation(t *testing.T) {
	cfg := testConfig(Gossip)
	cfg.Eviction = EvictionPolicy(99)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown eviction policy accepted")
	}
}

func TestMultiObserverFanOutAllEvents(t *testing.T) {
	a := newCountingObserver()
	b := newCountingObserver()
	multi := MultiObserver(a, nil, b)
	ad := &ads.Advertisement{ID: ads.ID{Issuer: 1, Seq: 2}, R: 1, D: 1}
	multi.OnIssue(0, ad, 1)
	multi.OnBroadcast(0, ad.ID, 10, 2)
	multi.OnFirstReceive(1, ad, 3)
	multi.OnDuplicate(1, ad.ID, 4)
	multi.OnExpire(1, ad.ID, 5)
	multi.OnEvict(1, ad.ID, 6)
	for name, obs := range map[string]*countingObserver{"a": a, "b": b} {
		if obs.issues != 1 || obs.broadcasts != 1 || len(obs.firsts) != 1 ||
			obs.duplicates != 1 || obs.expires != 1 || obs.evicts != 1 {
			t.Errorf("observer %s missed events: %+v", name, obs)
		}
	}
	// BaseObserver accepts everything silently.
	var base BaseObserver
	base.OnIssue(0, ad, 1)
	base.OnBroadcast(0, ad.ID, 10, 2)
	base.OnFirstReceive(1, ad, 3)
	base.OnDuplicate(1, ad.ID, 4)
	base.OnExpire(1, ad.ID, 5)
	base.OnEvict(1, ad.ID, 6)
}

// BenchmarkGossipRound is the paper's own round (Algorithm 2) for one peer in
// steady state: peer 0 holds k = 10 long-lived ads from issuers at different
// distances, and eight static neighbours already cache all ten, so every
// frame they hear is a duplicate. Start is not called: peer 0's round is the
// only slot event, and an operation is one RoundTime of the simulation — the
// prepare hook, ten expiry checks, P(d,t) refreshes and coin flips, the
// broadcasts that win and their deliveries. It must not allocate.
func BenchmarkGossipRound(b *testing.B) {
	pts := []geo.Point{{}}
	for i := 0; i < 8; i++ {
		a := 2 * math.Pi * float64(i) / 8
		pts = append(pts, geo.Point{X: 40 * math.Cos(a), Y: 40 * math.Sin(a)})
	}
	models := make([]mobility.Model, len(pts))
	for i, pt := range pts {
		models[i] = mobility.NewStatic(pt)
	}
	s := sim.New()
	cfg := testConfig(Gossip)
	n, err := New(s, testRadio(), models, cfg, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < cfg.CacheK; i++ {
		if _, err := n.IssueAd(i%len(pts), AdSpec{R: 40, D: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	s.Run(1)
	for i := range n.peers {
		p := &n.peers[i]
		if p.cache.Len() != cfg.CacheK {
			b.Fatalf("peer %d holds %d ads after the warm-up, want %d", p.id, p.cache.Len(), cfg.CacheK)
		}
	}
	p := &n.peers[0]
	n.rounds = make([]roundTimer, len(n.peers))
	rt := &n.rounds[0]
	rt.slot = n.rules.slotAfter(s.Now())
	rt.ev = s.ScheduleSlot(rt.slot, p.gossipRound)
	s.Run(s.Now() + 10*cfg.RoundTime) // warm the delivery pools
	sent := n.ch.Stats().Broadcasts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + cfg.RoundTime)
	}
	b.StopTimer()
	b.ReportMetric(float64(n.ch.Stats().Broadcasts-sent)/float64(b.N), "broadcasts/op")
}

// firstsObserver records every OnFirstReceive per ad and every issued ad.
type firstsObserver struct {
	BaseObserver
	t      *testing.T
	issued []ads.ID
	firsts map[ads.ID]map[int]bool
}

func (o *firstsObserver) OnIssue(_ int, ad *ads.Advertisement, _ float64) {
	o.issued = append(o.issued, ad.ID)
}

func (o *firstsObserver) OnFirstReceive(peer int, ad *ads.Advertisement, _ float64) {
	if o.firsts[ad.ID][peer] {
		o.t.Errorf("peer %d: second OnFirstReceive for %v", peer, ad.ID)
	}
	if o.firsts[ad.ID] == nil {
		o.firsts[ad.ID] = make(map[int]bool)
	}
	o.firsts[ad.ID][peer] = true
}

// TestHeardMatchesFirstReceive: for every peer and issued ad, HasReceived
// reads exactly the first receptions the observer heard, under every
// protocol family and with roadside units; an id never issued reads false.
func TestHeardMatchesFirstReceive(t *testing.T) {
	withRSU := testConfig(Gossip)
	withRSU.RSUPeers = []int{3, 17, 33}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flooding", testConfig(Flooding)},
		{"gossip", testConfig(Gossip)},
		{"gossip-opt", testConfig(GossipOpt)},
		{"relevance", testConfig(RelevanceExchange)},
		{"async", asyncConfig(2)},
		{"gossip-rsu", withRSU},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const peers = 70 // a partial last word in every heard set
			s := sim.New()
			models := make([]mobility.Model, peers)
			r := rng.New(5)
			for i := range models {
				m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
					Field: geo.NewRect(1500, 1500), SpeedMean: 10, SpeedDelta: 5,
					Pause: 5, Horizon: 300,
				}, r.SplitIndex("m", i))
				if err != nil {
					t.Fatal(err)
				}
				models[i] = m
			}
			n, err := New(s, testRadio(), models, tc.cfg, rng.New(13))
			if err != nil {
				t.Fatal(err)
			}
			o := &firstsObserver{t: t, firsts: make(map[ads.ID]map[int]bool)}
			n.SetObserver(o)
			n.Start()
			for k, issuer := range []int{0, 3, 0, 64, 69} {
				s.Schedule(1+20*float64(k), func() {
					if _, err := n.IssueAd(issuer, AdSpec{R: 400, D: 120, Category: "food"}); err != nil {
						t.Error(err)
					}
				})
			}
			s.Run(300)
			if len(o.issued) != 5 {
				t.Fatalf("%d ads issued, want 5", len(o.issued))
			}
			heard, missed := 0, 0
			for _, id := range o.issued {
				for i := range peers {
					got, want := n.Peer(i).HasReceived(id), o.firsts[id][i]
					if got != want {
						t.Errorf("peer %d, ad %v: HasReceived %v, first receptions say %v", i, id, got, want)
					}
					if got {
						heard++
					} else {
						missed++
					}
				}
			}
			t.Logf("%d peer × ad pairs heard, %d missed", heard, missed)
			if heard <= len(o.issued) || missed == 0 {
				t.Errorf("%d peer × ad pairs heard, %d missed: the run exercises too little", heard, missed)
			}
			for _, id := range []ads.ID{{Issuer: peers}, {Issuer: peers + 9, Seq: 3}, {Issuer: 0, Seq: 2}, {Issuer: 64, Seq: 1}} {
				for i := range peers {
					if n.Peer(i).HasReceived(id) {
						t.Errorf("peer %d has received %v, which was never issued", i, id)
					}
				}
			}
		})
	}
}
