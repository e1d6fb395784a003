package ads

import (
	"fmt"
	"math"
	"testing"

	"instantad/internal/rng"
)

// refCache is the reference the Cache is tested against: the map-and-tombstone
// cache it used to be. A map finds an entry; removal leaves a nil tombstone in
// the insertion-order slice, which is compacted once tombstones outnumber the
// live entries, and never while a walk is in progress. Its ForEach tolerates
// removing any entry, not only the visited one.
type refCache struct {
	k       int
	walks   int
	entries map[ID]*refEntry
	order   []*refEntry // insertion order; nil slots are tombstones
}

// refEntry is a refCache entry; pos is its slot in order, -1 once removed.
type refEntry struct {
	ad   *Advertisement
	prob float64
	pos  int
}

func newRefCache(k int) *refCache {
	return &refCache{k: k, entries: map[ID]*refEntry{}}
}

func (c *refCache) Len() int { return len(c.entries) }

func (c *refCache) Get(id ID) *refEntry { return c.entries[id] }

func (c *refCache) Insert(ad *Advertisement, prob float64) (*refEntry, bool) {
	if _, dup := c.entries[ad.ID]; dup {
		panic(fmt.Sprintf("ads: duplicate insert of %v", ad.ID))
	}
	e := &refEntry{ad: ad, prob: prob, pos: len(c.order)}
	c.entries[ad.ID] = e
	c.order = append(c.order, e)
	return e, len(c.entries) > c.k
}

func (c *refCache) unlink(e *refEntry) {
	delete(c.entries, e.ad.ID)
	c.order[e.pos] = nil
	e.pos = -1
}

func (c *refCache) maybeCompact() {
	if c.walks > 0 || len(c.order)-len(c.entries) <= len(c.entries)+4 {
		return
	}
	w := 0
	for _, e := range c.order {
		if e != nil {
			c.order[w] = e
			e.pos = w
			w++
		}
	}
	clear(c.order[w:])
	c.order = c.order[:w]
}

func (c *refCache) Remove(id ID) *refEntry {
	e, ok := c.entries[id]
	if !ok {
		return nil
	}
	c.unlink(e)
	c.maybeCompact()
	return e
}

func (c *refCache) EvictLowest() *refEntry {
	var victim *refEntry
	for _, e := range c.order {
		if e != nil && (victim == nil || e.prob < victim.prob) {
			victim = e
		}
	}
	if victim == nil {
		return nil
	}
	c.unlink(victim)
	c.maybeCompact()
	return victim
}

func (c *refCache) EvictOldest() *refEntry {
	for _, e := range c.order {
		if e != nil {
			c.unlink(e)
			c.maybeCompact()
			return e
		}
	}
	return nil
}

func (c *refCache) Entries() []*refEntry {
	out := make([]*refEntry, 0, len(c.entries))
	for _, e := range c.order {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

func (c *refCache) ForEach(fn func(*refEntry)) {
	c.walks++
	for _, e := range c.order {
		if e != nil {
			fn(e)
		}
	}
	c.walks--
	c.maybeCompact()
}

// TestCacheMatchesReference drives a Cache and the reference through the same
// random sequences of Insert (with overflow), Get, Remove, EvictLowest,
// EvictOldest, Entries, ForEach walks whose callback refreshes Prob and
// removes the entry it was handed, and Enlarge, the one write to a cached
// ad's R or D (half of them on a shared snapshot, which Own clones first),
// over a small id pool so hits, misses and re-insertions of a removed id are
// common, and probabilities from a small set (NaN included) so EvictLowest
// meets ties. After every step both must hold the same entries in the same
// order, every entry either ever handed out must agree on Cached and Prob,
// every returned entry must be the twin of the reference's, every slot's
// ranking key must be its entry's ad's, and neither backing array may pass
// k+1 slots.
func TestCacheMatchesReference(t *testing.T) {
	probs := []float64{0, 0.25, 0.5, 0.5, 1, math.NaN()}
	for _, k := range []int{1, 2, 10, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var ops [8]int
			overflows := 0
			for seq := 0; seq < 200; seq++ {
				rnd := rng.New(uint64(1000*k + seq))
				c, ref := NewCache(k), newRefCache(k)
				twin := map[*Entry]*refEntry{}
				pool := make([]*Advertisement, 3*k+2)
				for i := range pool {
					pool[i] = adWith(uint32(i%3), uint32(i))
				}
				same := func(step int, op string, got *Entry, want *refEntry) {
					t.Helper()
					if (got == nil) != (want == nil) || (got != nil && twin[got] != want) {
						t.Fatalf("seq %d step %d %s: got %v, reference %v", seq, step, op, got, want)
					}
				}
				for step := 0; step < 300; step++ {
					ad := pool[rnd.Intn(len(pool))]
					op := rnd.Intn(len(ops) + 3) // Insert weighted ×4 so caches fill
					if op >= len(ops) {
						op = 0
					}
					ops[op]++
					switch op {
					case 0: // Insert, as a protocol would: never a duplicate, never past k+1
						if ref.Get(ad.ID) != nil || ref.Len() > k {
							break
						}
						p := probs[rnd.Intn(len(probs))]
						got, gotOver := c.Insert(ad, p)
						want, wantOver := ref.Insert(ad, p)
						if gotOver != wantOver {
							t.Fatalf("seq %d step %d Insert %v: overflow %v, reference %v", seq, step, ad.ID, gotOver, wantOver)
						}
						twin[got] = want
						if gotOver {
							overflows++
						}
					case 1:
						same(step, "Get", c.Get(ad.ID), ref.Get(ad.ID))
					case 2:
						same(step, "Remove", c.Remove(ad.ID), ref.Remove(ad.ID))
					case 3:
						same(step, "EvictLowest", c.EvictLowest(), ref.EvictLowest())
					case 4:
						same(step, "EvictOldest", c.EvictOldest(), ref.EvictOldest())
					case 5: // Entries, checked below after every step
						c.Entries()
					case 6: // a walk that refreshes Prob and drops some entries
						var plan []int
						var visited []*Entry
						c.ForEach(func(e *Entry) {
							visited = append(visited, e)
							plan = append(plan, rnd.Intn(2*len(probs)))
							if p := plan[len(plan)-1]; p < len(probs) {
								e.Prob = probs[p]
							} else if p >= len(probs)+3 {
								c.Remove(e.Ad.ID)
							}
						})
						i := 0
						ref.ForEach(func(e *refEntry) {
							if i >= len(visited) || twin[visited[i]] != e {
								t.Fatalf("seq %d step %d ForEach: visit %d differs from the reference's", seq, step, i)
							}
							if p := plan[i]; p < len(probs) {
								e.prob = probs[p]
							} else if p >= len(probs)+3 {
								ref.Remove(e.ad.ID)
							}
							i++
						})
						if i != len(visited) {
							t.Fatalf("seq %d step %d ForEach: %d visits, reference %d", seq, step, len(visited), i)
						}
					case 7: // a duplicate with a larger R, D or both
						e := c.Get(ad.ID)
						if e == nil {
							break
						}
						e.Shared = rnd.Bool(0.5)
						r, d := e.Ad.R, e.Ad.D
						switch rnd.Intn(3) {
						case 0:
							r += 10
						case 1:
							d += 10
						default:
							r, d = r+10, d+10
						}
						c.Enlarge(e, r, d)
						if e.Ad.R != r || e.Ad.D != d || e.Shared {
							t.Fatalf("seq %d step %d Enlarge %v: R %v D %v shared %v, want %v %v false", seq, step, ad.ID, e.Ad.R, e.Ad.D, e.Shared, r, d)
						}
					}
					for i, s := range c.Slots() {
						if s.Key != s.Entry.Ad.Key() {
							t.Fatalf("seq %d step %d: slot %d (%v) holds key %+v, its ad %+v", seq, step, i, s.Entry.Ad.ID, s.Key, s.Entry.Ad.Key())
						}
					}
					if cap(c.ids) > k+1 || cap(c.slots) > k+1 {
						t.Fatalf("seq %d step %d: backing arrays hold %d ids and %d slots, k+1 = %d", seq, step, cap(c.ids), cap(c.slots), k+1)
					}
					got, want := c.Entries(), ref.Entries()
					if len(got) != len(want) || c.Len() != ref.Len() {
						t.Fatalf("seq %d step %d: %d entries (Len %d), reference %d", seq, step, len(got), c.Len(), len(want))
					}
					for i := range want {
						if twin[got[i]] != want[i] {
							t.Fatalf("seq %d step %d: entry %d is %v, reference %v", seq, step, i, got[i].Ad.ID, want[i].ad.ID)
						}
					}
					for g, w := range twin {
						if g.Cached() != (w.pos >= 0) || math.Float64bits(g.Prob) != math.Float64bits(w.prob) {
							t.Fatalf("seq %d step %d: %v Cached %v Prob %v, reference %v %v", seq, step, g.Ad.ID, g.Cached(), g.Prob, w.pos >= 0, w.prob)
						}
					}
				}
			}
			t.Logf("ops Insert/Get/Remove/EvictLowest/EvictOldest/Entries/ForEach/Enlarge: %v, %d overflowing inserts", ops, overflows)
			if overflows == 0 {
				t.Error("no insert overflowed the cache")
			}
		})
	}
}
