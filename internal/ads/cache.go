package ads

import (
	"fmt"
	"slices"

	"instantad/internal/geo"
)

// Entry is one cached advertisement together with its protocol bookkeeping:
// the forwarding probability its owner last wrote (EvictLowest's key) and,
// under Optimized Gossiping-2, the entry's due slot and the simulator's timer
// handle.
type Entry struct {
	Ad *Advertisement
	// Prob is the forwarding probability at the owner's position when the
	// owner last wrote it: at Insert, at each gossip round, and — for every
	// entry at once — just before EvictLowest, which drops the smallest. In
	// between it is stale: an owner that can name an overflow's victim without
	// that refresh (the simulator's core usually can) leaves the survivors'
	// values as they were.
	Prob float64
	// Slot is the entry's next gossip step under Optimized Gossiping-2, an
	// index on the round's slot grid (core.Rules) in the simulator and on a
	// live node alike. Like Timer it is owned by the protocol.
	Slot int64
	// Timer is an opaque handle owned by the protocol (a *sim.Event); the
	// cache only carries it so eviction can hand it back for cancellation.
	Timer any
	// Shared marks Ad as a copy-on-write snapshot that in-flight frames or
	// other peers' caches may also reference; mutate it only through Own.
	Shared bool

	cached bool
}

// Cached reports whether the entry is still in the cache that created it.
// A removed entry stays removed: re-inserting its ad makes a new Entry.
func (e *Entry) Cached() bool { return e.cached }

// Own returns the entry's ad for mutation, first replacing a shared
// copy-on-write snapshot with a private clone. Callers that only read the
// ad should use e.Ad directly.
func (e *Entry) Own() *Advertisement {
	if e.Shared {
		e.Ad = e.Ad.Clone()
		e.Shared = false
	}
	return e.Ad
}

// Key is what ranking a cached entry reads of its ad: the inputs of
// Formulas 1–3, which the cache keeps inline in the entry's slot.
type Key struct {
	Origin   geo.Point
	IssuedAt float64
	R, D     float64
}

// Age is the ad's age at now, as Advertisement.Age computes it.
func (k *Key) Age(now float64) float64 { return age(now, k.IssuedAt) }

// Key returns the ad's ranking key.
func (a *Advertisement) Key() Key {
	return Key{Origin: a.Origin, IssuedAt: a.IssuedAt, R: a.R, D: a.D}
}

// Slot is one cache entry with its ad's ranking key held inline, so an
// overflow ranks k+1 ads from one contiguous block instead of hopping Entry
// → Advertisement per ad. The key is written at Insert and by Enlarge, the
// one write to a cached ad's R or D.
type Slot struct {
	Entry *Entry
	Key
}

// Cache is the per-peer Store & Forward advertisement cache. The paper keeps
// at most k ads, evicting the one with the lowest forwarding probability when
// an insert overflows (Algorithm 1). Construct with NewCache; a zero Cache
// must be set up with Init before use.
//
// The entries sit in one slot slice in insertion order, the order every
// method walks and breaks ties in, with their ids in a parallel slice so Get
// scans one contiguous block; removal copies the tail down. That is linear in
// k, and no workload or default uses k > 20. Both backing arrays grow as
// append would but stop at k slots, or k+1 once an Insert overflows, the most
// a cache ever holds; they are released when the last entry leaves, so a peer
// holding no ad holds no array.
type Cache struct {
	ids   []ID // ids[i] is slots[i].Entry.Ad.ID
	slots []Slot
	k     int
}

// NewCache returns an empty cache that holds at most k ads. It panics if
// k < 1. Nothing is allocated until the first Insert.
func NewCache(k int) *Cache {
	c := new(Cache)
	c.Init(k)
	return c
}

// Init empties c and sets its capacity to k, for a Cache held by value. It
// panics if k < 1.
func (c *Cache) Init(k int) {
	if k < 1 {
		panic(fmt.Sprintf("ads: cache capacity %d < 1", k))
	}
	*c = Cache{k: k}
}

// K returns the configured capacity.
func (c *Cache) K() int { return c.k }

// Len returns the number of cached ads. It can transiently be K+1 between an
// Insert and the follow-up EvictLowest (the paper refreshes probabilities
// before choosing the victim, and refresh is the protocol's job; a protocol
// that names the victim before the insert removes it first and never exceeds
// K, as core.Rules.Admit does).
func (c *Cache) Len() int { return len(c.slots) }

// Get returns the entry for id, or nil when absent.
func (c *Cache) Get(id ID) *Entry {
	if i := slices.Index(c.ids, id); i >= 0 {
		return c.slots[i].Entry
	}
	return nil
}

// Slots returns the cache's own slot block in insertion order, for reading
// only: it is valid until the next call that inserts or removes an entry.
func (c *Cache) Slots() []Slot { return c.slots }

// Insert adds ad with the given initial probability. It returns the new
// entry and whether the cache now exceeds its capacity (in which case the
// caller must refresh probabilities and call EvictLowest). Inserting an ID
// that is already present, or into a cache already holding k+1 ads, panics:
// the protocol must route duplicates through its merge path, not Insert, and
// settle an overflow before the next insert.
func (c *Cache) Insert(ad *Advertisement, prob float64) (e *Entry, overflow bool) {
	if slices.Contains(c.ids, ad.ID) {
		panic(fmt.Sprintf("ads: duplicate insert of %v", ad.ID))
	}
	if n := len(c.slots); n == cap(c.slots) {
		if n > c.k {
			panic(fmt.Sprintf("ads: insert of %v into a cache holding k+1 = %d ads", ad.ID, n))
		}
		if n < c.k {
			n = min(max(2*n, 1), c.k)
		} else {
			n = c.k + 1
		}
		c.ids = append(make([]ID, 0, n), c.ids...)
		c.slots = append(make([]Slot, 0, n), c.slots...)
	}
	e = &Entry{Ad: ad, Prob: prob, cached: true}
	c.ids = append(c.ids, ad.ID)
	c.slots = append(c.slots, Slot{Entry: e, Key: ad.Key()})
	return e, len(c.slots) > c.k
}

// Enlarge raises the entry's R and D to r and d where those are larger,
// writing through Own, and rewrites its slot's key in the same call: it is
// the one write to a cached ad's R or D, so no key goes stale. e must be
// cached in c.
func (c *Cache) Enlarge(e *Entry, r, d float64) {
	ad := e.Own()
	if r > ad.R {
		ad.R = r
	}
	if d > ad.D {
		ad.D = d
	}
	c.slots[slices.Index(c.ids, ad.ID)].Key = ad.Key()
}

// removeAt deletes and returns the i-th entry in insertion order.
func (c *Cache) removeAt(i int) *Entry {
	e := c.slots[i].Entry
	e.cached = false
	if len(c.slots) == 1 {
		c.ids, c.slots = nil, nil
		return e
	}
	c.ids = slices.Delete(c.ids, i, i+1)
	c.slots = slices.Delete(c.slots, i, i+1)
	return e
}

// Remove deletes the entry for id and returns it (nil when absent).
func (c *Cache) Remove(id ID) *Entry {
	if i := slices.Index(c.ids, id); i >= 0 {
		return c.removeAt(i)
	}
	return nil
}

// EvictLowest removes and returns the entry with the smallest probability,
// breaking ties by insertion order (oldest first). It returns nil when the
// cache is empty.
func (c *Cache) EvictLowest() *Entry {
	if len(c.slots) == 0 {
		return nil
	}
	v := 0
	for i := range c.slots {
		if c.slots[i].Entry.Prob < c.slots[v].Entry.Prob {
			v = i
		}
	}
	return c.removeAt(v)
}

// Entries returns the cached entries in insertion order. The slice is fresh
// but the entries are shared; callers may mutate Prob/Slot in place.
func (c *Cache) Entries() []*Entry {
	out := make([]*Entry, len(c.slots))
	for i := range c.slots {
		out[i] = c.slots[i].Entry
	}
	return out
}

// ForEach calls fn for every cached entry in insertion order without
// allocating — the hot-path alternative to Entries. fn may mutate
// Prob/Slot in place and may remove the entry it was handed, but no
// other, and must not insert.
func (c *Cache) ForEach(fn func(*Entry)) {
	for i := 0; i < len(c.slots); {
		e := c.slots[i].Entry
		fn(e)
		if e.cached {
			i++
		}
	}
}
