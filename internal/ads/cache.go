package ads

import (
	"fmt"
	"slices"
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

// Cache is the per-peer Store & Forward advertisement cache. The paper keeps
// at most k ads, evicting the one with the lowest forwarding probability when
// an insert overflows (Algorithm 1). The zero value is not usable; construct
// with NewCache.
//
// The entries sit in one slice in insertion order, the order every method
// walks and breaks ties in, with their ids in a parallel slice so Get scans
// one contiguous block; removal copies the tail down. That is linear in k,
// and no workload or default uses k > 20.
type Cache struct {
	k       int
	ids     []ID // ids[i] is entries[i].Ad.ID
	entries []*Entry
}

// NewCache returns an empty cache that holds at most k ads. It panics if
// k < 1. Nothing is allocated until the first Insert.
func NewCache(k int) *Cache {
	if k < 1 {
		panic(fmt.Sprintf("ads: cache capacity %d < 1", k))
	}
	return &Cache{k: k}
}

// K returns the configured capacity.
func (c *Cache) K() int { return c.k }

// Len returns the number of cached ads. It can transiently be K+1 between an
// Insert and the follow-up EvictLowest (the paper refreshes probabilities
// before choosing the victim, and refresh is the protocol's job; a protocol
// that already knows the victim removes it first and never exceeds K).
func (c *Cache) Len() int { return len(c.entries) }

// Get returns the entry for id, or nil when absent.
func (c *Cache) Get(id ID) *Entry {
	if i := slices.Index(c.ids, id); i >= 0 {
		return c.entries[i]
	}
	return nil
}

// Insert adds ad with the given initial probability. It returns the new
// entry and whether the cache now exceeds its capacity (in which case the
// caller must refresh probabilities and call EvictLowest). Inserting an ID
// that is already present panics: the protocol must route duplicates through
// its merge path, not Insert.
func (c *Cache) Insert(ad *Advertisement, prob float64) (e *Entry, overflow bool) {
	if slices.Contains(c.ids, ad.ID) {
		panic(fmt.Sprintf("ads: duplicate insert of %v", ad.ID))
	}
	e = &Entry{Ad: ad, Prob: prob, cached: true}
	c.ids = append(c.ids, ad.ID)
	c.entries = append(c.entries, e)
	return e, len(c.entries) > c.k
}

// removeAt deletes and returns the i-th entry in insertion order.
func (c *Cache) removeAt(i int) *Entry {
	e := c.entries[i]
	e.cached = false
	c.ids = slices.Delete(c.ids, i, i+1)
	c.entries = slices.Delete(c.entries, i, i+1)
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
	if len(c.entries) == 0 {
		return nil
	}
	v := 0
	for i, e := range c.entries {
		if e.Prob < c.entries[v].Prob {
			v = i
		}
	}
	return c.removeAt(v)
}

// EvictOldest removes and returns the earliest-inserted entry (FIFO), or
// nil when empty. Provided for the eviction-policy ablation; the paper's
// rule is EvictLowest.
func (c *Cache) EvictOldest() *Entry {
	if len(c.entries) == 0 {
		return nil
	}
	return c.removeAt(0)
}

// Entries returns the cached entries in insertion order. The slice is fresh
// but the entries are shared; callers may mutate Prob/Slot in place.
func (c *Cache) Entries() []*Entry {
	return slices.Clone(c.entries)
}

// ForEach calls fn for every cached entry in insertion order without
// allocating — the hot-path alternative to Entries. fn may mutate
// Prob/Slot in place and may remove the entry it was handed, but no
// other, and must not insert.
func (c *Cache) ForEach(fn func(*Entry)) {
	for i := 0; i < len(c.entries); {
		e := c.entries[i]
		fn(e)
		if e.cached {
			i++
		}
	}
}
