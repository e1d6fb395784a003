package node

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/fm"
	"instantad/internal/geo"
	"instantad/internal/node/memnet"
	"instantad/internal/rng"
)

// idleNode builds a node on a memnet switchboard that is never started: the
// test calling its locked methods is the only clock.
func idleNode(t *testing.T, mutate func(*Config)) *Node {
	t.Helper()
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, geo.Point{})
	cfg.ListenAddr, cfg.Transport = "mem:", sb.Transport()
	mutate(&cfg)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func cachedIDs(c *ads.Cache) []ads.ID {
	var ids []ads.ID
	c.ForEach(func(e *ads.Entry) { ids = append(ids, e.Ad.ID) })
	return ids
}

// TestDueWalkDropsExpiredAds drives a node's cache under Optimization
// Mechanism 2 through random admissions (with Algorithm 5 enlarging some on
// the way in), duplicate merges that raise D and postpone, and overflow
// evictions, and ticks the node at irregular instants — among them exactly an
// ad's IssuedAt + D and one ulp either side, and gaps of more than a round.
// After every tick the cache must hold every ad not Expired at that instant,
// nothing else, and at most k: entries not yet due leave when expired too.
// Every entry left must be due after the tick's slot, and one that stepped
// must keep its phase. Then the clock jumps a thousand rounds: each live entry
// steps once, not once per missed round, and keeps its phase, as does the
// node's round.
func TestDueWalkDropsExpiredAds(t *testing.T) {
	pc := core.PopularityConfig{Enabled: true, F: 8, L: 32, RInc: 50, DInc: 3, DMax: 40}
	n := idleNode(t, func(c *Config) {
		c.CacheK = 6
		c.Opt2 = true
		c.Interests = []string{"petrol"}
		c.Popularity = pc
	})
	rnd := rng.New(7)
	pos := geo.Point{}
	now := 100.0
	pick := func() *ads.Entry {
		es := n.cache.Entries()
		if len(es) == 0 {
			return nil
		}
		return es[rnd.Intn(len(es))]
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var stepped, expiredDue, expiredWaiting int
	var seq uint32
	for step := 0; step < 20000; step++ {
		switch r := rnd.Float64(); {
		case r < 0.25: // a new ad, some of them matching our interests
			seq++
			ad := &ads.Advertisement{
				ID:       ads.ID{Issuer: 9, Seq: seq},
				IssuedAt: now - rnd.Range(0, 3),
				R:        400,
				D:        rnd.Range(0.2, 6),
				Category: []string{"petrol", "shoes"}[rnd.Intn(2)],
				Sketch:   fm.New(pc.F, pc.L, pc.SketchSeed),
			}
			n.integrateAdLocked(now, pos, pos, geo.Vec{}, ad)
		case r < 0.45: // a duplicate that lived longer elsewhere
			if e := pick(); e != nil {
				dup := e.Ad.Clone()
				dup.D += rnd.Range(0, 4)
				n.integrateAdLocked(now, pos, pos, geo.Vec{}, dup)
			}
		default: // a tick
			next := now + rnd.Exp(20)
			if e := pick(); e != nil && rnd.Bool(0.5) {
				// Land on the boundary Expired decides.
				edge := e.Ad.IssuedAt + e.Ad.D
				switch rnd.Intn(3) {
				case 0:
					edge = math.Nextafter(edge, math.Inf(-1))
				case 1:
					edge = math.Nextafter(edge, math.Inf(1))
				}
				if edge >= now {
					next = edge
				}
			}
			now = next
			cur := n.rules.SlotAt(now)
			var want []ads.ID
			due := make(map[ads.ID]int64)
			n.cache.ForEach(func(e *ads.Entry) {
				switch {
				case !e.Ad.Expired(now):
					want = append(want, e.Ad.ID)
					if e.Slot <= cur {
						stepped++
						due[e.Ad.ID] = e.Slot
					}
				case e.Slot > cur:
					expiredWaiting++
				default:
					expiredDue++
				}
			})
			n.tickLocked(now, pos)
			if got := cachedIDs(&n.cache); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, t=%v: cache holds %v, want the live ads %v", step, now, got, want)
			}
			n.cache.ForEach(func(e *ads.Entry) {
				if was, ok := due[e.Ad.ID]; e.Slot <= cur || ok && (e.Slot-was)%core.DefaultRoundSlots != 0 {
					t.Fatalf("step %d, slot %d: %v due at %d after the tick, %d before", step, cur, e.Ad.ID, e.Slot, was)
				}
			})
		}
		if n.cache.Len() > n.cache.K() {
			t.Fatalf("step %d: cache holds %d > k", step, n.cache.Len())
		}
	}
	// The walk must have stepped live entries and dropped expired ones on
	// both sides of their due time.
	if stepped < 100 || expiredDue < 100 || expiredWaiting < 100 {
		t.Errorf("degenerate walk: %d steps, %d expired due, %d expired before due", stepped, expiredDue, expiredWaiting)
	}
	t.Logf("%d steps, %d expired due, %d expired before due", stepped, expiredDue, expiredWaiting)

	// The node stalls for a thousand rounds. Its long-lived ads sit at its
	// own position with a large R, so each step is a send.
	n.cache.ForEach(func(e *ads.Entry) { n.cache.Remove(e.Ad.ID) })
	for seq := uint32(1); seq <= 4; seq++ {
		now += 0.011 // admitted on different phases
		n.integrateAdLocked(now, pos, pos, geo.Vec{}, &ads.Advertisement{ID: ads.ID{Issuer: 8, Seq: seq}, IssuedAt: now, R: 1e6, D: 1e6})
	}
	slots := make(map[ads.ID]int64)
	n.cache.ForEach(func(e *ads.Entry) { slots[e.Ad.ID] = e.Slot })
	round := n.roundSlot
	now += 1000 * n.cfg.RoundTime.Seconds()
	cur := n.rules.SlotAt(now)
	sent, _ := n.tickLocked(now, pos)
	if len(sent) != len(slots) {
		t.Errorf("%d sends after a stall of 1000 rounds, want one per entry, %d", len(sent), len(slots))
	}
	n.cache.ForEach(func(e *ads.Entry) {
		if was := slots[e.Ad.ID]; e.Slot <= cur || e.Slot > cur+core.DefaultRoundSlots || (e.Slot-was)%core.DefaultRoundSlots != 0 {
			t.Errorf("%v: due at slot %d after the stall to slot %d, was %d: want the next on its phase", e.Ad.ID, e.Slot, cur, was)
		}
	})
	if n.roundSlot <= cur || n.roundSlot > cur+core.DefaultRoundSlots || (n.roundSlot-round)%core.DefaultRoundSlots != 0 {
		t.Errorf("node round at slot %d after the stall to slot %d, was %d: want the next on its phase", n.roundSlot, cur, round)
	}
}

// TestNodeGossipsOncePerRound drives a node's polls directly with synthetic
// protocol times on the Δt/5 grid, each late by a seeded jitter in
// [0, Δt/5), later than the poll driver runs them. Its ads sit at its own
// position with a large R, so P = 1 and every step is a send: over N rounds
// each must be sent N ± 1 times, with Optimization Mechanism 2 and without.
// Without it, every cached entry steps at the node's round, one instant
// (Algorithm 2), though the ads were admitted on different phases.
func TestNodeGossipsOncePerRound(t *testing.T) {
	const rounds, ticksPerRound = 200, 5
	for _, opt2 := range []bool{false, true} {
		t.Run(fmt.Sprintf("opt2=%v", opt2), func(t *testing.T) {
			n := idleNode(t, func(c *Config) { c.Opt2 = opt2 })
			dt := n.cfg.RoundTime.Seconds()
			tick := dt / ticksPerRound
			pos := geo.Point{}
			n.mu.Lock()
			defer n.mu.Unlock()
			const k = 3
			for seq := uint32(1); seq <= k; seq++ {
				at := float64(seq) * 0.3 * tick
				n.integrateAdLocked(at, pos, pos, geo.Vec{}, &ads.Advertisement{ID: ads.ID{Issuer: 8, Seq: seq}, IssuedAt: at, R: 1e6, D: 1e6})
			}
			jitter := rng.New(5)
			sends := make(map[ads.ID]int)
			for i := 1; i <= rounds*ticksPerRound; i++ {
				sent, _ := n.tickLocked(float64(i)*tick+jitter.Range(0, tick), pos)
				if !opt2 && len(sent) != 0 && len(sent) != k {
					t.Fatalf("tick %d stepped %d of %d entries: Algorithm 2 steps the whole cache at once", i, len(sent), k)
				}
				for _, ad := range sent {
					sends[ad.ID]++
				}
			}
			for seq := uint32(1); seq <= k; seq++ {
				id := ads.ID{Issuer: 8, Seq: seq}
				if got := sends[id]; got < rounds-1 || got > rounds+1 {
					t.Errorf("%v sent %d times in %d rounds of Δt = %v, want %d ± 1", id, got, rounds, n.cfg.RoundTime, rounds)
				}
			}
			t.Logf("sends per ad over %d rounds: %v", rounds, sends)
		})
	}
}

// evictLog records a node's evictions in order.
type evictLog struct {
	core.BaseObserver
	ids []ads.ID
}

func (l *evictLog) OnEvict(_ int, id ads.ID, _ float64) { l.ids = append(l.ids, id) }

// TestNodeOverflowMatchesAlgorithm1 feeds one stream of receptions — random
// origins and ages, popularity on, duplicates that raise D — to a node and to
// a reference cache run under Algorithm 1 as written: insert, refresh every
// entry's P with core.ForwardProb or ForwardProbOpt1, drop the lowest. The
// two hold the same ad objects, so enlargements and merges reach both. After
// every admission the surviving ids and their order must be equal.
func TestNodeOverflowMatchesAlgorithm1(t *testing.T) {
	for _, k := range []int{1, 6, 16} {
		for _, dis := range []float64{0, 120} {
			t.Run(fmt.Sprintf("k=%d/DIS=%v", k, dis), func(t *testing.T) {
				pc := core.PopularityConfig{Enabled: true, F: 8, L: 32, SketchSeed: 3, RInc: 60, DInc: 5, RMax: 900, DMax: 90}
				evicted := &evictLog{}
				n := idleNode(t, func(c *Config) {
					c.CacheK, c.DIS = k, dis
					c.Interests = []string{"petrol"}
					c.Popularity = pc
					c.Events = evicted
				})
				params := core.ProbParams{Alpha: n.cfg.Alpha, Beta: n.cfg.Beta}
				pos := geo.Point{X: 500, Y: 500}
				ref := ads.NewCache(k)
				// refAdmit returns the entry Algorithm 1 evicts, or nil.
				refAdmit := func(ad *ads.Advertisement, now float64) *ads.Entry {
					if _, overflow := ref.Insert(ad, -1); !overflow {
						return nil
					}
					ref.ForEach(func(e *ads.Entry) {
						d, age := pos.Dist(e.Ad.Origin), e.Ad.Age(now)
						if dis > 0 {
							e.Prob = core.ForwardProbOpt1(params, d, e.Ad.R, e.Ad.D, age, dis)
						} else {
							e.Prob = core.ForwardProb(params, d, e.Ad.R, e.Ad.D, age)
						}
					})
					return ref.EvictLowest()
				}
				rnd := rng.New(uint64(k) + 11)
				now := 50.0
				var seq uint32
				var pool []*ads.Advertisement
				admitted, dropped, raised := 0, 0, 0
				n.mu.Lock()
				defer n.mu.Unlock()
				for step := 0; step < 3000; step++ {
					now += rnd.Exp(4)
					var ad *ads.Advertisement
					if len(pool) > 0 && rnd.Bool(0.3) {
						ad = pool[rnd.Intn(len(pool))].Clone() // a copy from elsewhere
						ad.D += rnd.Range(0, 20)
					} else {
						seq++
						ad = &ads.Advertisement{
							ID:       ads.ID{Issuer: 9, Seq: seq},
							Origin:   geo.Point{X: rnd.Range(-1000, 2000), Y: rnd.Range(-1000, 2000)},
							IssuedAt: now - rnd.Range(0, 60),
							R:        rnd.Range(200, 800),
							D:        rnd.Range(20, 120),
							Category: []string{"petrol", "shoes"}[rnd.Intn(2)],
							Sketch:   fm.New(pc.F, pc.L, pc.SketchSeed),
						}
						pool = append(pool, ad)
					}
					if ad.Expired(now) {
						continue
					}
					if e := ref.Get(ad.ID); e != nil {
						if ad.D > e.Ad.D {
							raised++
						}
						n.integrateAdLocked(now, pos, pos, geo.Vec{}, ad) // merges into the shared object
						continue
					}
					before := len(evicted.ids)
					n.integrateAdLocked(now, pos, pos, geo.Vec{}, ad)
					var want []ads.ID
					if victim := refAdmit(ad, now); victim != nil {
						want = []ads.ID{victim.Ad.ID}
					}
					if got := evicted.ids[before:]; len(got) != len(want) || len(got) == 1 && got[0] != want[0] {
						t.Fatalf("step %d, after %v: node reports evictions %v, Algorithm 1 evicts %v", step, ad.ID, got, want)
					}
					if n.cache.Get(ad.ID) != nil {
						admitted++
					} else {
						dropped++
					}
					if got, want := cachedIDs(&n.cache), cachedIDs(ref); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d, t=%v, after %v: node caches %v, Algorithm 1 %v", step, now, ad.ID, got, want)
					}
					if c := cap(n.cache.Slots()); c > k {
						t.Fatalf("step %d: the node's cache has %d slots, k = %d: it held k+1", step, c, k)
					}
				}
				if dropped == 0 || admitted == 0 || raised == 0 {
					t.Errorf("%d admitted, %d dropped on arrival, %d duplicates raised D: a path went untested", admitted, dropped, raised)
				}
			})
		}
	}
}

// TestNodeInterestOrderAndDuplicatesDoNotMatter gives Config.Interests one
// set in several orders and with repeats: each node must hold the same sorted
// set and admit a matching ad with the same popularity update, bit for bit.
func TestNodeInterestOrderAndDuplicatesDoNotMatter(t *testing.T) {
	pc := core.PopularityConfig{Enabled: true, F: 8, L: 32, RInc: 50, DInc: 3}
	var want *ads.Advertisement
	for i, v := range [][]string{{"food", "petrol"}, {"petrol", "food"}, {"petrol", "petrol", "food", "food"}} {
		n := idleNode(t, func(c *Config) {
			c.Interests = v
			c.Popularity = pc
		})
		if !reflect.DeepEqual(n.cfg.Interests, []string{"food", "petrol"}) {
			t.Errorf("Interests %q: the node holds %q", v, n.cfg.Interests)
		}
		ad := &ads.Advertisement{ID: ads.ID{Issuer: 9}, R: 400, D: 30, Category: "petrol", Sketch: fm.New(pc.F, pc.L, pc.SketchSeed)}
		n.mu.Lock()
		e := n.admitLocked(ad, geo.Point{}, 1)
		n.mu.Unlock()
		if e == nil {
			t.Fatalf("Interests %q: the ad was not admitted", v)
		}
		if i == 0 {
			if e.Ad.R == 400 {
				t.Fatalf("Interests %q: a matching ad was not enlarged", v)
			}
			want = e.Ad
		} else if e.Ad.R != want.R || e.Ad.D != want.D || !reflect.DeepEqual(e.Ad.Sketch, want.Sketch) {
			t.Errorf("Interests %q: admitted R %v D %v, want %v %v", v, e.Ad.R, e.Ad.D, want.R, want.D)
		}
	}
}
