package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// The reference below is the overflow path as it stood before it was split
// into per-call work (position, clock), per-ad work (Formula 2, memoised) and
// per-entry work (Formulas 1/3): Formula bodies and all, so the differential
// test compares two independent computations.

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

// TestOverflowRefreshMatchesReference is the differential test for the
// overflow path: on generated caches — every gossip variant, auto and explicit
// units, roadside units' 1/0 rule, copies of one ad whose R and D differ the
// way popularity enlargement leaves them, expired and not-yet-aged ads, moving
// and static peers — the victim and the bits of every refreshed Entry.Prob
// equal the reference's. All peers overflow at one instant, so the radius
// memo is hit; the same ads come back at a second instant, so it must miss.
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
			if n.rtMemo != nil {
				t.Fatal("radius memo allocated before any overflow")
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
			newcomerIn, newcomerOut := 0, 0
			for _, now := range []float64{40, 40.5, 97} {
				s.Run(now)
				hitsBefore := 0
				for pi := 0; pi < peers; pi++ {
					p := n.peers[pi]
					// Two caches with the same k+1 entries: this peer's draw of
					// the live ads, every third copy enlarged as Formula 7 would.
					// The last one enters got the way a reception does, through
					// admit, which ranks it by the overflow refresh alone.
					got, want := ads.NewCache(cfg.CacheK), ads.NewCache(cfg.CacheK)
					p.cache = got
					var all []*ads.Entry
					var newcomer *ads.Entry
					for k, i := range rnd.Perm(live)[:cfg.CacheK+1] {
						ad := pool[i]
						if rnd.Intn(3) == 0 {
							ad = ad.Clone()
							ad.R += 50 / math.Log2(float64(2+rnd.Intn(9)))
							ad.D += 10 / math.Log2(float64(2+rnd.Intn(9)))
						}
						want.Insert(ad, -1)
						if k < cfg.CacheK {
							e, _ := got.Insert(ad, -1)
							all = append(all, e)
							continue
						}
						if n.rtMemo != nil {
							for _, e := range want.Entries() {
								m := n.rtMemo.slot(e.Ad)
								if m.issuedAt == e.Ad.IssuedAt && m.r == e.Ad.R && m.d == e.Ad.D && m.now == now {
									hitsBefore++
								}
							}
						}
						newcomer = p.admit(ad, true)
						p.cancelEntryTimer(newcomer) // this test runs no rounds
						all = append(all, newcomer)
					}
					wantVictim := p.refEvictLowest(want)
					var victim *ads.Entry
					for _, e := range all {
						if !e.Cached() {
							if victim != nil {
								t.Fatalf("t=%v peer %d: admit evicted both %v and %v", now, pi, victim.Ad.ID, e.Ad.ID)
							}
							victim = e
						}
					}
					if victim == nil || victim.Ad.ID != wantVictim.Ad.ID {
						t.Fatalf("t=%v peer %d: evicted %v, reference evicts %v", now, pi, victim, wantVictim.Ad.ID)
					}
					if math.Float64bits(victim.Prob) != math.Float64bits(wantVictim.Prob) {
						t.Fatalf("t=%v peer %d: victim prob %v, reference %v", now, pi, victim.Prob, wantVictim.Prob)
					}
					if victim == newcomer {
						newcomerOut++
					} else {
						// A surviving newcomer carries the refreshed value, as if
						// admit had evaluated it itself.
						newcomerIn++
						if ref := p.refForwardProb(newcomer.Ad); math.Float64bits(newcomer.Prob) != math.Float64bits(ref) {
							t.Fatalf("t=%v peer %d: surviving newcomer P=%v, reference %v", now, pi, newcomer.Prob, ref)
						}
					}
					ge, we := got.Entries(), want.Entries()
					for k := range we {
						if ge[k].Ad.ID != we[k].Ad.ID || math.Float64bits(ge[k].Prob) != math.Float64bits(we[k].Prob) {
							t.Fatalf("t=%v peer %d entry %d: %v P=%v (bits %x), reference %v P=%v (bits %x)",
								now, pi, k, ge[k].Ad.ID, ge[k].Prob, math.Float64bits(ge[k].Prob),
								we[k].Ad.ID, we[k].Prob, math.Float64bits(we[k].Prob))
						}
					}
				}
				if hitsBefore == 0 {
					t.Errorf("t=%v: no refresh found its radius memoised: the memo path went untested", now)
				}
			}
			if newcomerIn == 0 || newcomerOut == 0 {
				t.Errorf("newcomer survived %d times and was its own victim %d times: one went untested",
					newcomerIn, newcomerOut)
			}
		})
	}
}

// TestRadiusMemoMissesOnAnyChangedInput pins the memo's exactness: a lookup
// hits only for the very (IssuedAt, R, D, now) it stored; changing any one of
// them returns what RadiusAt returns for the new inputs.
func TestRadiusMemoMissesOnAnyChangedInput(t *testing.T) {
	_, n := staticNet(t, testConfig(GossipOpt), []geo.Point{{}})
	base := ads.Advertisement{IssuedAt: 3, R: 500, D: 120}
	variants := []struct {
		ad  ads.Advertisement
		now float64
	}{
		{base, 50}, {base, 50}, {base, 50.25},
		{ads.Advertisement{IssuedAt: 3.5, R: 500, D: 120}, 50},
		{ads.Advertisement{IssuedAt: 3, R: 550, D: 120}, 50},
		{ads.Advertisement{IssuedAt: 3, R: 500, D: 130}, 50},
		{base, 200}, // expired: radius 0
		{base, 50},
	}
	for i, v := range variants {
		got := n.radiusNow(&v.ad, v.now)
		want := RadiusAt(n.cfg.Params, v.ad.R, v.ad.D, v.ad.Age(v.now))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("lookup %d: radiusNow = %v, RadiusAt = %v", i, got, want)
		}
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
	// so the evicted entry's decide must find itself gone rather than find
	// the new entry under its old ID.
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
	was := *fresh
	p.entryDecide(old, 0)
	if act := p.commitAct(); act.kind != actGone || act.e != nil {
		t.Fatalf("the evicted entry's timer decided %+v, want actGone", act)
	}
	if *fresh != was {
		t.Fatalf("the evicted entry's timer changed the new entry: %+v, was %+v", *fresh, was)
	}
	checkOneTimerPerEntry(t, s, n)
}

// TestNewcomerEvictedGetsNoTimer: when the arriving ad is itself the lowest
// P(d,t) in the overflowing cache it is evicted before a timer is built for
// it — the queue does not move, and the ad still counts as received.
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
	pending := s.Pending()
	far := &ads.Advertisement{ID: ads.ID{Issuer: 9, Seq: 99}, Origin: geo.Point{X: 3000}, R: 500, D: 100}
	p.handleGossip(gossipFrame{ad: far}, 1)
	if p.cache.Get(far.ID) != nil {
		t.Fatal("the far ad displaced a nearer one")
	}
	if s.Pending() != pending {
		t.Fatalf("queue went from %d to %d events for an ad that was never kept", pending, s.Pending())
	}
	if !p.HasReceived(far.ID) || obs.evicts != 1 {
		t.Fatalf("received=%v evicts=%d, want true and 1", p.HasReceived(far.ID), obs.evicts)
	}
	checkOneTimerPerEntry(t, s, n)
}

// BenchmarkReceiveOverflow measures Algorithm 1's overflow branch end to end:
// a peer whose k = 10 cache is full hears a new ad, refreshes all eleven
// probabilities, evicts the lowest and (Optimization Mechanism 2) arms the
// survivor's timer.
func BenchmarkReceiveOverflow(b *testing.B) {
	const poolSize = 4096
	rnd := rand.New(rand.NewSource(1))
	pool := make([]*ads.Advertisement, poolSize)
	for i := range pool {
		pool[i] = &ads.Advertisement{
			ID:     ads.ID{Issuer: 1, Seq: uint32(i)},
			Origin: geo.Point{X: rnd.Float64() * 1500, Y: rnd.Float64() * 1500},
			R:      500, D: 120,
		}
	}
	var p *Peer
	reset := func() { // a fresh peer: its received set must not grow with b.N
		s := sim.New()
		models := []mobility.Model{mobility.NewStatic(geo.Point{X: 750, Y: 750}), mobility.NewStatic(geo.Point{X: 800, Y: 750})}
		n, err := New(s, testRadio(), models, testConfig(GossipOpt), rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		n.Start()
		s.Run(10)
		p = n.peers[0]
	}
	const fresh = poolSize - 10 // new ads per peer lifetime: an ID never comes twice
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%fresh == 0 {
			b.StopTimer()
			reset()
			for _, ad := range pool[:10] {
				p.handleGossip(gossipFrame{ad: ad}, 1)
			}
			b.StartTimer()
		}
		p.handleGossip(gossipFrame{ad: pool[10+i%fresh]}, 1)
	}
}
