package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// The reference below is Algorithm 1's overflow path as written — insert,
// refresh every entry's P(d,t) with its own copy of the Formula bodies, drop
// the lowest — so the differential tests compare two independent
// computations: admit's ranking from scores against this.

func refForwardProb(p ProbParams, dist, r, d, age float64) float64 {
	rt := RadiusAt(p, r, d, age)
	if rt <= 0 {
		return 0
	}
	u := p.distUnit(r)
	du := dist / u
	rtu := rt / u
	if dist <= rt {
		return 1 - math.Pow(p.Alpha, rtu+1-du)
	}
	return (1 - p.Alpha) * math.Pow(p.Alpha, du-rtu)
}

func refForwardProbOpt1(p ProbParams, dist, r, d, age, dis float64) float64 {
	rt := RadiusAt(p, r, d, age)
	if rt <= 0 {
		return 0
	}
	if dis >= rt {
		return refForwardProb(p, dist, r, d, age)
	}
	u := p.distUnit(r)
	du := dist / u
	rtu := rt / u
	disu := dis / u
	switch {
	case dist > rt:
		return (1 - p.Alpha) * math.Pow(p.Alpha, du-rtu)
	case dist >= rt-dis:
		return 1 - math.Pow(p.Alpha, rtu+1-du)
	default:
		return (1 - math.Pow(p.Alpha, disu+1)) * math.Pow(p.Alpha, rtu-disu-du)
	}
}

func (p *Peer) refForwardProb(ad *ads.Advertisement) float64 {
	n := p.net
	d := p.Position().Dist(ad.Origin)
	age := ad.Age(n.sim.Now())
	if p.isRSU {
		if d <= RadiusAt(n.cfg.Params, ad.R, ad.D, age) {
			return 1
		}
		return 0
	}
	if n.cfg.Protocol.usesOpt1() {
		return refForwardProbOpt1(n.cfg.Params, d, ad.R, ad.D, age, n.cfg.DIS)
	}
	return refForwardProb(n.cfg.Params, d, ad.R, ad.D, age)
}

// refEvictLowest is the EvictLowestProb branch of the old evictOne, applied
// to an explicit cache.
func (p *Peer) refEvictLowest(c *ads.Cache) *ads.Entry {
	for _, e := range c.Entries() {
		e.Prob = p.refForwardProb(e.Ad)
	}
	return c.EvictLowest()
}

// overflowCase is one generated configuration of the differential test.
type overflowCase struct {
	name   string
	proto  Protocol
	params ProbParams
	rsus   []int
}

func overflowCases() []overflowCase {
	auto := ProbParams{Alpha: 0.5, Beta: 0.5}
	explicit := ProbParams{Alpha: 0.3, Beta: 0.7, DistUnit: 40, TimeUnit: 9}
	var cases []overflowCase
	for _, proto := range []Protocol{Gossip, GossipOpt1, GossipOpt2, GossipOpt} {
		cases = append(cases,
			overflowCase{fmt.Sprintf("%v/auto-units", proto), proto, auto, nil},
			overflowCase{fmt.Sprintf("%v/explicit-units", proto), proto, explicit, nil},
			overflowCase{fmt.Sprintf("%v/rsus", proto), proto, auto, []int{0, 3, 7}})
	}
	return cases
}

// checkOverflow admits newcomer to peer p holding exactly held (a full cache)
// and checks everything the overflow can be seen to do against the reference:
// the victim, the surviving ids in cache order, and the one OnEvict. It
// reports whether the newcomer was its own victim and whether the victim
// took the exact path (the scores certified nothing).
func checkOverflow(t *testing.T, n *Network, p *Peer, held []*ads.Advertisement, newcomer *ads.Advertisement) (dropped, exact bool) {
	t.Helper()
	got, want := ads.NewCache(n.cfg.CacheK), ads.NewCache(n.cfg.CacheK)
	for _, ad := range held {
		got.Insert(ad, -1)
		want.Insert(ad, -1)
	}
	want.Insert(newcomer, -1)
	wantVictim := p.refEvictLowest(want).Ad.ID

	log := &eventLog{}
	n.SetObserver(log)
	p.cache = got
	exactBefore := n.overflowExact.Value()
	now := n.sim.Now()
	e := p.admit(newcomer, true)
	if e != nil {
		p.cancelEntryTimer(e) // these tests run no rounds
	}
	if dropped = got.Get(newcomer.ID) == nil; dropped != (e == nil) {
		t.Fatalf("admit returned %v for a newcomer with dropped = %v", e, dropped)
	}
	if len(log.events) != 1 || log.events[0] != (protoEvent{"evict", p.id, wantVictim, now}) {
		t.Fatalf("peer %d t=%v: events %+v, reference evicts %v", p.id, now, log.events, wantVictim)
	}
	ge, we := got.Entries(), want.Entries()
	if len(ge) != len(we) {
		t.Fatalf("peer %d t=%v: %d entries left, reference %d", p.id, now, len(ge), len(we))
	}
	for k := range we {
		if ge[k].Ad != we[k].Ad {
			t.Fatalf("peer %d t=%v entry %d: %v, reference %v", p.id, now, k, ge[k].Ad.ID, we[k].Ad.ID)
		}
	}
	return dropped, n.overflowExact.Value() > exactBefore
}

// TestOverflowRefreshMatchesReference is the differential test for the
// overflow path: on generated caches — every gossip variant, auto and explicit
// units, roadside units' 1/0 rule, copies of one ad whose R and D differ the
// way popularity enlargement leaves them, expired and not-yet-aged ads, moving
// and static peers — the victim, the survivors in order and the eviction the
// observer hears equal the reference's.
func TestOverflowRefreshMatchesReference(t *testing.T) {
	for _, tc := range overflowCases() {
		t.Run(tc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(7))
			const peers, live = 12, 30
			models := make([]mobility.Model, peers)
			for i := range models {
				at := geo.Point{X: rnd.Float64() * 1500, Y: rnd.Float64() * 1500}
				if i%3 == 1 {
					models[i] = newShuttle(at, geo.Point{X: rnd.Float64() * 1500, Y: rnd.Float64() * 1500}, 15)
				} else {
					models[i] = mobility.NewStatic(at)
				}
			}
			cfg := testConfig(tc.proto)
			cfg.Params, cfg.RSUPeers = tc.params, tc.rsus
			s := sim.New()
			n, err := New(s, testRadio(), models, cfg, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			// The live ads: origins across the field, issue times before and
			// after the instants below, some short-lived enough to be expired.
			pool := make([]*ads.Advertisement, live)
			for i := range pool {
				pool[i] = &ads.Advertisement{
					ID:       ads.ID{Issuer: uint32(i % peers), Seq: uint32(i / peers)},
					Origin:   geo.Point{X: rnd.Float64() * 1500, Y: rnd.Float64() * 1500},
					IssuedAt: rnd.Float64() * 60,
					R:        200 + rnd.Float64()*600,
					D:        5 + rnd.Float64()*200,
				}
			}
			newcomerIn, newcomerOut, certified := 0, 0, 0
			for _, now := range []float64{40, 40.5, 97} {
				s.Run(now)
				for _, p := range n.peers {
					// This peer's draw of k+1 live ads, every third copy enlarged
					// as Formula 7 would; the last arrives the way a reception does.
					var draw []*ads.Advertisement
					for _, i := range rnd.Perm(live)[:cfg.CacheK+1] {
						ad := pool[i]
						if rnd.Intn(3) == 0 {
							ad = ad.Clone()
							ad.R += 50 / math.Log2(float64(2+rnd.Intn(9)))
							ad.D += 10 / math.Log2(float64(2+rnd.Intn(9)))
						}
						draw = append(draw, ad)
					}
					dropped, exact := checkOverflow(t, n, p, draw[:cfg.CacheK], draw[cfg.CacheK])
					if dropped {
						newcomerOut++
					} else {
						newcomerIn++
					}
					if !exact {
						certified++
					}
					if p.isRSU && !exact {
						t.Fatalf("t=%v: roadside unit %d ranked its overflow from scores", now, p.id)
					}
				}
			}
			if newcomerIn == 0 || newcomerOut == 0 || certified < 2*peers {
				t.Errorf("newcomer survived %d times, was its own victim %d times, %d overflows certified: a path went untested",
					newcomerIn, newcomerOut, certified)
			}
		})
	}
}

// TestOverflowAdversarialCaches puts one static peer at the origin in front
// of the caches the certificate exists for — ties, near-ties, the branch
// boundaries of Formulas 1/3, the jump at age = D, underflow — and checks the
// victim against the reference, and that the cases no score can decide are
// decided by Formulas 1–3. Ad origins lie on the x axis, so an ad's distance
// is its |x| exactly.
func TestOverflowAdversarialCaches(t *testing.T) {
	const now = 50.0
	type adAt struct{ x, issuedAt, r, d float64 }
	fresh := func(x float64) adAt { return adAt{x, 0, 500, 100} }
	base := testConfig(GossipOpt)
	rt := RadiusAt(base.Params, 500, 100, now)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		ads    []adAt // the cache in order, then the newcomer
		exact  bool   // the certificate must fail
	}{
		{"bit-equal pair, the older loses", nil,
			[]adAt{fresh(300), fresh(900), fresh(900), fresh(400)}, true},
		{"bit-equal newcomer, the cached copy loses", nil,
			[]adAt{fresh(300), fresh(400), fresh(900), fresh(900)}, true},
		{"a pair one ulp of distance apart", nil,
			[]adAt{fresh(300), fresh(math.Nextafter(900, 1000)), fresh(900), fresh(400)}, true},
		{"at d = R_t and d = R_t - DIS exactly", nil,
			[]adAt{fresh(rt), fresh(rt - base.DIS), fresh(rt - 10), fresh(rt - 60)}, false},
		{"just either side of d = R_t", nil,
			[]adAt{fresh(math.Nextafter(rt, 0)), fresh(math.Nextafter(rt, 1e9)), fresh(rt - 10), fresh(rt)}, true},
		{"DIS >= R_t: Formula 3 is Formula 1", func(c *Config) { c.DIS = 2000 },
			[]adAt{fresh(0), fresh(200), fresh(600), fresh(450)}, false},
		{"plain gossip", func(c *Config) { c.Protocol = Gossip },
			[]adAt{fresh(0), fresh(200), fresh(600), fresh(450)}, false},
		{"age within the guard band of D", nil,
			[]adAt{fresh(300), {200, now - 100 + 1e-10, 500, 100}, fresh(900), fresh(400)}, true},
		{"age = D exactly", nil,
			[]adAt{fresh(300), {200, now - 100, 500, 100}, fresh(900), fresh(400)}, true},
		{"one expired ad among live ones", nil,
			[]adAt{fresh(300), {200, 0, 500, 20}, fresh(900), fresh(400)}, false},
		{"all expired: the first in order loses", nil,
			[]adAt{{300, 0, 500, 20}, {900, 0, 500, 30}, {100, 0, 500, 10}, {400, 0, 500, 40}}, false},
		{"DistUnit = 1: far ads underflow", func(c *Config) { c.Params.DistUnit = 1 },
			[]adAt{fresh(300), fresh(2500), fresh(2600), fresh(400)}, true},
		{"DistUnit = 0.1: the exponent is ill-conditioned in R_t", func(c *Config) { c.Params.DistUnit = 0.1 },
			[]adAt{fresh(rt + 1), fresh(rt + 2), fresh(rt + 3), fresh(rt + 4)}, true},
		{"alpha beyond the budget", func(c *Config) { c.Params.Alpha = 0.995 },
			[]adAt{fresh(0), fresh(200), fresh(600), fresh(450)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.CacheK = len(tc.ads) - 1
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			s, n := staticNet(t, cfg, []geo.Point{{}})
			s.Run(now)
			var all []*ads.Advertisement
			for i, a := range tc.ads {
				all = append(all, &ads.Advertisement{
					ID: ads.ID{Issuer: 3, Seq: uint32(i)}, Origin: geo.Point{X: a.x},
					IssuedAt: a.issuedAt, R: a.r, D: a.d,
				})
			}
			if _, exact := checkOverflow(t, n, n.peers[0], all[:cfg.CacheK], all[cfg.CacheK]); exact != tc.exact {
				t.Errorf("exact path taken = %v, want %v", exact, tc.exact)
			}
		})
	}
}

// evictionLog records every eviction in order and counts everything else.
type evictionLog struct {
	BaseObserver
	evicts []protoEvent
	others int
}

func (l *evictionLog) OnEvict(p int, id ads.ID, t float64) {
	l.evicts = append(l.evicts, protoEvent{"evict", p, id, t})
}
func (l *evictionLog) OnBroadcast(int, ads.ID, int, float64)           { l.others++ }
func (l *evictionLog) OnFirstReceive(int, *ads.Advertisement, float64) { l.others++ }
func (l *evictionLog) OnDuplicate(int, ads.ID, float64)                { l.others++ }
func (l *evictionLog) OnExpire(int, ads.ID, float64)                   { l.others++ }

// TestOverflowRankingMatchesExactInMobileRun runs a storm — waypoint peers,
// small caches, overlapping ads that popularity enlarges copy by copy — twice:
// as shipped, and with the scorer poisoned so that no overflow is ever
// certified and every one is Algorithm 1 as written. One victim chosen
// differently would change who holds what from then on; the two runs must
// agree on every eviction in order, over 10⁵ of them between plain and
// optimized gossiping, nearly all decided from scores in the first run.
func TestOverflowRankingMatchesExactInMobileRun(t *testing.T) {
	total := 0
	for _, tc := range []struct {
		proto  Protocol
		numAds int
	}{{Gossip, 30}, {GossipOpt, 400}} {
		proto, numAds := tc.proto, tc.numAds
		run := func(poison bool) (*evictionLog, *Network, radio.Stats, uint64) {
			cfg := testConfig(proto)
			cfg.CacheK = 4
			cfg.Popularity = PopularityConfig{Enabled: true, F: 8, L: 32, SketchSeed: 9, RInc: 50, DInc: 10, RMax: 800, DMax: 240}
			s, n := waypointNet(t, cfg, 300, 900, 125, 400, 21)
			if poison {
				n.rank.lnAlpha = math.NaN()
			}
			for i, p := range n.peers {
				p.SetInterests([]string{"fuel", "food", "books"}[i%3])
			}
			log := &evictionLog{}
			n.SetObserver(log)
			n.Start()
			for i := 0; i < numAds; i++ {
				i := i
				s.Schedule(1+100*float64(i)/float64(numAds), func() {
					spec := AdSpec{R: 300 + 50*float64(i%5), D: 60 + 20*float64(i%4), Category: []string{"fuel", "food", "books", "toys"}[i%4]}
					if _, err := n.IssueAd((i*37)%n.NumPeers(), spec); err != nil {
						t.Error(err)
					}
				})
			}
			s.Run(300)
			return log, n, n.ch.Stats(), s.Dispatched()
		}
		got, n, gotStats, gotEvents := run(false)
		want, exactNet, wantStats, wantEvents := run(true)
		overflows, dropped, exact := n.overflows.Value(), n.overflowDropped.Value(), n.overflowExact.Value()
		t.Logf("%v: %d overflows, %d newcomers dropped, %d ranked exactly", proto, overflows, dropped, exact)
		if all := exactNet.overflowExact.Value(); all != overflows || uint64(len(want.evicts)) != overflows {
			t.Fatalf("%v: the poisoned run ranked %d of its %d evictions exactly, the other run overflowed %d times",
				proto, all, len(want.evicts), overflows)
		}
		for i := range want.evicts {
			if i >= len(got.evicts) || got.evicts[i] != want.evicts[i] {
				t.Fatalf("%v eviction %d: %+v, exact %+v", proto, i, got.evicts[i:][:1], want.evicts[i])
			}
		}
		if len(got.evicts) != len(want.evicts) || got.others != want.others || gotStats != wantStats || gotEvents != wantEvents {
			t.Errorf("%v: %d evictions, %d other events, %+v, %d dispatched; exact %d, %d, %+v, %d", proto,
				len(got.evicts), got.others, gotStats, gotEvents, len(want.evicts), want.others, wantStats, wantEvents)
		}
		if dropped == 0 || dropped == overflows || exact*100 > overflows {
			t.Errorf("%v: %d overflows, %d dropped, %d exact: a path went untested or the scores decide too little",
				proto, overflows, dropped, exact)
		}
		total += len(want.evicts)
	}
	if total < 100_000 {
		t.Errorf("%d overflows compared, want at least 100000", total)
	}
}

// isolatedOpt2Net builds peers too far apart to hear each other under a
// per-entry-timer protocol: the only events the simulator ever holds are the
// cache entries' timers.
func isolatedOpt2Net(t *testing.T, k int) (*sim.Simulator, *Network) {
	cfg := testConfig(GossipOpt)
	cfg.CacheK = k
	pts := make([]geo.Point, 4)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * 5000}
	}
	s, n := staticNet(t, cfg, pts)
	n.Start()
	return s, n
}

// checkOneTimerPerEntry asserts Optimization Mechanism 2's bookkeeping: every
// cached entry owns one pending timer, and nothing else is queued.
func checkOneTimerPerEntry(t *testing.T, s *sim.Simulator, n *Network) {
	t.Helper()
	entries := 0
	seen := map[*sim.Event]bool{}
	for _, p := range n.peers {
		if p.cache.Len() > p.cache.K() {
			t.Fatalf("peer %d holds %d entries, k = %d", p.id, p.cache.Len(), p.cache.K())
		}
		p.cache.ForEach(func(e *ads.Entry) {
			entries++
			ev, _ := e.Timer.(*sim.Event)
			if ev == nil || !ev.Pending() || seen[ev] {
				t.Fatalf("peer %d entry %v: timer %v (pending or unshared expected)", p.id, e.Ad.ID, ev)
			}
			seen[ev] = true
		})
	}
	if s.Pending() != entries {
		t.Fatalf("%d events queued for %d cache entries", s.Pending(), entries)
	}
}

// TestOpt2OneTimerPerCachedEntry drives random receptions — new ads that
// overflow the cache, duplicates that postpone, the clock advancing through
// timer firings and expiries — and checks the one-timer-per-entry invariant
// after every step.
func TestOpt2OneTimerPerCachedEntry(t *testing.T) {
	s, n := isolatedOpt2Net(t, 3)
	rnd := rand.New(rand.NewSource(5))
	var pool []*ads.Advertisement
	for step := 0; step < 400; step++ {
		if rnd.Intn(5) == 0 {
			s.Run(s.Now() + rnd.Float64()*4)
			checkOneTimerPerEntry(t, s, n)
		}
		var ad *ads.Advertisement
		if len(pool) == 0 || rnd.Intn(3) == 0 {
			ad = &ads.Advertisement{
				ID:       ads.ID{Issuer: 9, Seq: uint32(len(pool))},
				Origin:   geo.Point{X: rnd.Float64()*16000 - 500, Y: rnd.Float64()*1000 - 500},
				IssuedAt: s.Now(),
				R:        500 + rnd.Float64()*500,
				D:        10 + rnd.Float64()*60,
			}
			pool = append(pool, ad)
		} else {
			ad = pool[rnd.Intn(len(pool))] // a duplicate wherever it is still cached
		}
		to := rnd.Intn(len(n.peers))
		n.peers[to].handleGossip(gossipFrame{ad: ad}, (to+1)%len(n.peers))
		checkOneTimerPerEntry(t, s, n)
	}
	s.Run(s.Now() + 200) // everything expires; the timers go with the entries
	checkOneTimerPerEntry(t, s, n)
	if s.Pending() != 0 {
		t.Fatalf("%d events left after every ad expired", s.Pending())
	}

	// Evict, then admit the same ID again: the timer belongs to the entry,
	// so the evicted entry's round must find itself gone rather than find
	// the new entry under its old ID, and do nothing.
	p := n.peers[0]
	adAt := func(seq uint32, x, d float64) *ads.Advertisement {
		return &ads.Advertisement{ID: ads.ID{Issuer: 7, Seq: seq}, Origin: geo.Point{X: x}, IssuedAt: s.Now(), R: 500, D: d}
	}
	// Under the annulus rule an ad centred on the peer ranks lowest.
	low := adAt(0, 0, 100)
	p.handleGossip(gossipFrame{ad: low}, 1)
	old := p.cache.Get(low.ID)
	for seq := uint32(1); seq <= 3; seq++ { // three short-lived ads out in the annulus push it out
		p.handleGossip(gossipFrame{ad: adAt(seq, 450, 10)}, 1)
	}
	if old.Cached() || p.cache.Get(low.ID) != nil || old.Timer.(*sim.Event).Pending() {
		t.Fatal("the lowest-ranked ad was not evicted with its timer")
	}
	s.Run(s.Now() + 15) // the others expire and leave room
	p.handleGossip(gossipFrame{ad: low}, 1)
	fresh := p.cache.Get(low.ID)
	if fresh == nil || fresh == old || !fresh.Cached() {
		t.Fatal("the evicted ad was not admitted again as a new entry")
	}
	checkOneTimerPerEntry(t, s, n)
	was, seq, draws := *fresh, simSeq(s), *p.rnd
	p.entryRound(old)
	if simSeq(s) != seq || *p.rnd != draws {
		t.Fatal("the evicted entry's timer took an event sequence number or a draw")
	}
	if *fresh != was {
		t.Fatalf("the evicted entry's timer changed the new entry: %+v, was %+v", *fresh, was)
	}
	checkOneTimerPerEntry(t, s, n)
}

// simSeq reads the simulator's next event sequence number (unexported: no
// caller but this test has a use for it).
func simSeq(s *sim.Simulator) uint64 {
	return reflect.ValueOf(s).Elem().FieldByName("seq").Uint()
}

// TestNewcomerEvictedGetsNoTimer: when the arriving ad is itself the lowest
// P(d,t) it never enters the cache — no entry, no timer, no event sequence
// number taken, the queue does not move — and still counts as received and
// as one eviction.
func TestNewcomerEvictedGetsNoTimer(t *testing.T) {
	s, n := isolatedOpt2Net(t, 3)
	obs := newCountingObserver()
	n.SetObserver(obs)
	p := n.peers[0]
	for i := 0; i < 3; i++ { // fill the cache with ads centred on the peer
		p.handleGossip(gossipFrame{ad: &ads.Advertisement{
			ID: ads.ID{Issuer: 9, Seq: uint32(i)}, R: 500, D: 100,
		}}, 1)
	}
	checkOneTimerPerEntry(t, s, n)
	pending, seq := s.Pending(), simSeq(s)
	far := &ads.Advertisement{ID: ads.ID{Issuer: 9, Seq: 99}, Origin: geo.Point{X: 3000}, R: 500, D: 100}
	p.handleGossip(gossipFrame{ad: far}, 1)
	if p.cache.Get(far.ID) != nil || p.cache.Len() != 3 {
		t.Fatal("the far ad displaced a nearer one")
	}
	if s.Pending() != pending || simSeq(s) != seq {
		t.Fatalf("queue went from %d to %d events and sequence number %d to %d for an ad that was never kept",
			pending, s.Pending(), seq, simSeq(s))
	}
	if !p.HasReceived(far.ID) || obs.evicts != 1 {
		t.Fatalf("received=%v evicts=%d, want true and 1", p.HasReceived(far.ID), obs.evicts)
	}
	if d, x := n.overflowDropped.Value(), n.overflowExact.Value(); d != 1 || x != 0 {
		t.Fatalf("%d newcomers dropped, %d overflows ranked exactly, want 1 and 0", d, x)
	}
	checkOneTimerPerEntry(t, s, n)
}

// BenchmarkReceiveOverflow measures Algorithm 1's overflow branch end to end
// on a peer whose k = 10 cache is full. dropped: the arriving ad, from far
// away, ranks lowest and is gone again — the common case, which must not
// allocate; every arrival is the same frame snapshot, which the cache never
// holds. admitted: each ad is issued a little nearer than every one before it,
// so it outranks the whole cache, replaces the lowest entry and (Optimization
// Mechanism 2) gets a timer.
func BenchmarkReceiveOverflow(b *testing.B) {
	const poolSize = 4096
	at := geo.Point{X: 750, Y: 750}
	pool := make([]*ads.Advertisement, poolSize)
	for i := range pool { // 1400 m out down to the annulus: P rises all the way
		pool[i] = &ads.Advertisement{
			ID:     ads.ID{Issuer: 1, Seq: uint32(i)},
			Origin: geo.Point{X: at.X + 1400 - 0.25*float64(i), Y: at.Y},
			R:      500, D: 120,
		}
	}
	var p *Peer
	reset := func() { // a fresh peer: its received set must not grow with b.N
		s := sim.New()
		models := []mobility.Model{mobility.NewStatic(at), mobility.NewStatic(geo.Point{X: 800, Y: 750})}
		n, err := New(s, testRadio(), models, testConfig(GossipOpt), rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		n.Start()
		s.Run(10)
		p = n.peers[0]
		for _, ad := range pool[:10] {
			p.handleGossip(gossipFrame{ad: ad}, 1)
		}
	}
	b.Run("dropped", func(b *testing.B) {
		reset()
		far := &ads.Advertisement{ID: ads.ID{Issuer: 2}, Origin: geo.Point{X: 9000, Y: 9000}, R: 500, D: 120}
		p.handleGossip(gossipFrame{ad: far}, 1) // marked received here, once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.handleGossip(gossipFrame{ad: far}, 1)
		}
		if got := p.net.overflowDropped.Value(); got != uint64(b.N)+1 {
			b.Fatalf("%d of %d arrivals dropped", got, b.N+1)
		}
	})
	b.Run("admitted", func(b *testing.B) {
		const fresh = poolSize - 10 // new ads per peer lifetime: an ID never comes twice
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%fresh == 0 {
				b.StopTimer()
				reset()
				b.StartTimer()
			}
			p.handleGossip(gossipFrame{ad: pool[10+i%fresh]}, 1)
			if p.cache.Get(pool[10+i%fresh].ID) == nil {
				b.Fatalf("arrival %d was not admitted", i)
			}
		}
	})
}
