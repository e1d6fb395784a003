package ads

import (
	"testing"
	"testing/quick"

	"instantad/internal/geo"
)

func adWith(issuer, seq uint32) *Advertisement {
	return &Advertisement{
		ID:       ID{Issuer: issuer, Seq: seq},
		Origin:   geo.Point{X: 100, Y: 100},
		IssuedAt: 0,
		R:        500,
		D:        1800,
	}
}

// EvictOldest removes and returns the earliest-inserted entry (FIFO), or nil
// when empty: removal at the front, which the tests drive. The eviction-policy
// ablation names its FIFO victim from Slots instead (core.Rules.evict).
func (c *Cache) EvictOldest() *Entry {
	if len(c.slots) == 0 {
		return nil
	}
	return c.removeAt(0)
}

func TestNewCachePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCache(0) did not panic")
		}
	}()
	NewCache(0)
}

func TestInsertGetRemove(t *testing.T) {
	c := NewCache(3)
	a := adWith(1, 1)
	e, overflow := c.Insert(a, 0.5)
	if overflow {
		t.Error("overflow on first insert")
	}
	if e.Ad != a || e.Prob != 0.5 {
		t.Error("entry fields wrong")
	}
	if got := c.Get(a.ID); got != e {
		t.Error("Get returned different entry")
	}
	if got := c.Get(ID{9, 9}); got != nil {
		t.Error("Get on absent ID returned entry")
	}
	if r := c.Remove(a.ID); r != e {
		t.Error("Remove returned different entry")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after remove", c.Len())
	}
	if r := c.Remove(a.ID); r != nil {
		t.Error("double remove returned entry")
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	c := NewCache(3)
	c.Insert(adWith(1, 1), 0.5)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	c.Insert(adWith(1, 1), 0.7)
}

func TestInsertPastKPlusOnePanics(t *testing.T) {
	c := NewCache(1)
	c.Insert(adWith(1, 1), 0.5)
	if _, overflow := c.Insert(adWith(1, 2), 0.5); !overflow {
		t.Fatal("the second insert into a k = 1 cache did not overflow")
	}
	defer func() {
		if recover() == nil {
			t.Error("an insert into a cache holding k+1 ads did not panic")
		}
	}()
	c.Insert(adWith(1, 3), 0.5)
}

func TestOverflowAndEvictLowest(t *testing.T) {
	c := NewCache(2)
	c.Insert(adWith(1, 1), 0.9)
	c.Insert(adWith(1, 2), 0.3)
	_, overflow := c.Insert(adWith(1, 3), 0.6)
	if !overflow {
		t.Fatal("no overflow at k+1 ads")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want transient 3", c.Len())
	}
	victim := c.EvictLowest()
	if victim == nil || victim.Ad.ID != (ID{1, 2}) {
		t.Fatalf("evicted %v, want ad-1/2", victim)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d after eviction", c.Len())
	}
}

func TestEvictTieBreaksOldestFirst(t *testing.T) {
	c := NewCache(3)
	c.Insert(adWith(1, 1), 0.5)
	c.Insert(adWith(1, 2), 0.5)
	v := c.EvictLowest()
	if v.Ad.ID != (ID{1, 1}) {
		t.Errorf("evicted %v, want the older ad-1/1", v.Ad.ID)
	}
}

func TestEvictLowestEmpty(t *testing.T) {
	if v := NewCache(1).EvictLowest(); v != nil {
		t.Error("EvictLowest on empty cache returned entry")
	}
}

func TestEntriesInsertionOrder(t *testing.T) {
	c := NewCache(5)
	ids := []ID{{1, 3}, {1, 1}, {2, 7}}
	for _, id := range ids {
		c.Insert(adWith(id.Issuer, id.Seq), 0.1)
	}
	es := c.Entries()
	if len(es) != 3 {
		t.Fatalf("Entries len = %d", len(es))
	}
	for i, e := range es {
		if e.Ad.ID != ids[i] {
			t.Errorf("entry %d = %v, want %v", i, e.Ad.ID, ids[i])
		}
	}
}

func TestCacheNeverExceedsKPlusOneProperty(t *testing.T) {
	// Driving the cache the way protocols do (insert, then evict on
	// overflow) keeps Len ≤ k at rest, and neither backing array ever holds
	// more than k+1 slots: the heap a full cache costs is what its k+1 keys
	// cost, not append's doubling.
	f := func(ops []uint16, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		c := NewCache(k)
		for i, op := range ops {
			id := ID{Issuer: uint32(op % 50), Seq: uint32(op / 50)}
			if c.Get(id) != nil {
				continue
			}
			_, overflow := c.Insert(adWith(id.Issuer, id.Seq), float64(i%10)/10)
			if cap(c.ids) > k+1 || cap(c.slots) > k+1 {
				return false
			}
			if overflow {
				if c.EvictLowest() == nil {
					return false
				}
			}
			if c.Len() > k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKAccessor(t *testing.T) {
	if NewCache(7).K() != 7 {
		t.Error("K accessor wrong")
	}
}

func TestEvictOldest(t *testing.T) {
	c := NewCache(3)
	c.Insert(adWith(1, 1), 0.9)
	c.Insert(adWith(1, 2), 0.1)
	v := c.EvictOldest()
	if v == nil || v.Ad.ID != (ID{1, 1}) {
		t.Fatalf("evicted %v, want the first-inserted ad-1/1", v)
	}
	if NewCache(1).EvictOldest() != nil {
		t.Error("EvictOldest on empty cache returned entry")
	}
}

// TestForEachToleratesRemoval walks caches while the callback removes the
// entry it was handed on a random plan — none, some, all of them, the first or
// the last — and checks that each entry is visited once, in insertion order,
// that a removed one reads as not Cached, and that exactly the kept ones are
// left, in order.
func TestForEachToleratesRemoval(t *testing.T) {
	f := func(drop uint64, sizeRaw uint8) bool {
		size := int(sizeRaw%40) + 1
		c := NewCache(size)
		for i := 0; i < size; i++ {
			c.Insert(adWith(1, uint32(i)), 0)
		}
		var visited, kept []uint32
		ok := true
		c.ForEach(func(e *Entry) {
			seq := e.Ad.ID.Seq
			visited = append(visited, seq)
			if drop>>seq&1 == 0 {
				kept = append(kept, seq)
				return
			}
			if c.Remove(e.Ad.ID) != e || e.Cached() {
				ok = false
			}
			c.ForEach(func(*Entry) {}) // a nested read-only walk is fine
		})
		if !ok || len(visited) != size || c.Len() != len(kept) {
			return false
		}
		for i, seq := range visited {
			if seq != uint32(i) {
				return false
			}
		}
		for i, e := range c.Entries() {
			if e.Ad.ID.Seq != kept[i] || !e.Cached() {
				return false
			}
		}
		return true
	}
	for _, drop := range []uint64{0, ^uint64(0), 1, 1 << 39, 0x5555555555} {
		if !f(drop, 39) {
			t.Errorf("drop plan %#x on 40 entries failed", drop)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
