package ads

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one cached advertisement together with its protocol bookkeeping:
// the forwarding probability its owner last wrote (EvictLowest's key) and,
// under Optimized Gossiping-2, the per-entry next scheduled gossip time and
// its timer handle.
type Entry struct {
	Ad *Advertisement
	// Prob is the forwarding probability at the owner's position when the
	// owner last wrote it: at Insert, at each gossip round, and — for every
	// entry at once — just before EvictLowest, which drops the smallest. In
	// between it is stale: an owner that can name an overflow's victim without
	// that refresh (the simulator's core usually can) leaves the survivors'
	// values as they were.
	Prob float64
	// ScheduledAt is the per-entry next gossip time under Optimized
	// Gossiping-2 (every entry gossips together each round otherwise).
	ScheduledAt float64
	// Slot is the integer index of ScheduledAt on the protocol's slotted
	// round grid. Like Timer it is owned by the protocol: slot times are
	// always recomputed as index×width from this counter so that entries
	// meant to coincide land on bit-identical float64 instants.
	Slot int64
	// Timer is an opaque handle owned by the protocol (a *sim.Event); the
	// cache only carries it so eviction can hand it back for cancellation.
	Timer any
	// Shared marks Ad as a copy-on-write snapshot that in-flight frames or
	// other peers' caches may also reference; mutate it only through Own.
	Shared bool

	// pos is the entry's slot in Cache.order, -1 once removed.
	pos int
}

// Cached reports whether the entry is still in the cache that created it.
// A removed entry stays removed: re-inserting its ad makes a new Entry.
func (e *Entry) Cached() bool { return e.pos >= 0 }

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
// Iteration is in insertion order, deterministically. Removal is
// O(1)-amortized: each entry remembers its slot in the order slice, removal
// leaves a nil tombstone there, and the slice is compacted (preserving
// relative order) once tombstones outnumber live entries — never while a
// ForEach is walking it.
type Cache struct {
	// k and walks share a word: every peer has a cache, and the struct stays
	// in the 64-byte size class.
	k       int32
	walks   int32 // ForEach calls in progress; compaction waits for 0
	entries map[ID]*Entry
	order   []*Entry // insertion order; nil slots are tombstones
	scratch []*Entry // reusable RemoveExpired result buffer
}

// NewCache returns an empty cache that holds at most k ads. It panics if
// k < 1 (or beyond int32, which no cache reaches).
func NewCache(k int) *Cache {
	if k < 1 || k > math.MaxInt32 {
		panic(fmt.Sprintf("ads: cache capacity %d outside [1, %d]", k, math.MaxInt32))
	}
	return &Cache{k: int32(k), entries: make(map[ID]*Entry, k+1)}
}

// K returns the configured capacity.
func (c *Cache) K() int { return int(c.k) }

// Len returns the number of cached ads. It can transiently be K+1 between an
// Insert and the follow-up EvictLowest (the paper refreshes probabilities
// before choosing the victim, and refresh is the protocol's job; a protocol
// that already knows the victim removes it first and never exceeds K).
func (c *Cache) Len() int { return len(c.entries) }

// Get returns the entry for id, or nil when absent.
func (c *Cache) Get(id ID) *Entry {
	return c.entries[id]
}

// Insert adds ad with the given initial probability. It returns the new
// entry and whether the cache now exceeds its capacity (in which case the
// caller must refresh probabilities and call EvictLowest). Inserting an ID
// that is already present panics: the protocol must route duplicates through
// its merge path, not Insert.
func (c *Cache) Insert(ad *Advertisement, prob float64) (e *Entry, overflow bool) {
	if _, dup := c.entries[ad.ID]; dup {
		panic(fmt.Sprintf("ads: duplicate insert of %v", ad.ID))
	}
	e = &Entry{Ad: ad, Prob: prob, pos: len(c.order)}
	c.entries[ad.ID] = e
	c.order = append(c.order, e)
	return e, len(c.entries) > int(c.k)
}

// unlink detaches e from the map and leaves a tombstone in order. The caller
// decides when to compact (Remove does it immediately; RemoveExpired defers
// to after its sweep so the slice never shifts mid-iteration).
func (c *Cache) unlink(e *Entry) {
	delete(c.entries, e.Ad.ID)
	c.order[e.pos] = nil
	e.pos = -1
}

// maybeCompact rewrites order in place without tombstones once they
// outnumber the live entries (plus slack for tiny caches), keeping removal
// O(1) amortized and iteration O(live).
func (c *Cache) maybeCompact() {
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
	for i := w; i < len(c.order); i++ {
		c.order[i] = nil // release tombstoned slots for the GC
	}
	c.order = c.order[:w]
}

// Remove deletes the entry for id and returns it (nil when absent).
func (c *Cache) Remove(id ID) *Entry {
	e, ok := c.entries[id]
	if !ok {
		return nil
	}
	c.unlink(e)
	c.maybeCompact()
	return e
}

// EvictLowest removes and returns the entry with the smallest probability,
// breaking ties by insertion order (oldest first). It returns nil when the
// cache is empty.
func (c *Cache) EvictLowest() *Entry {
	var victim *Entry
	for _, e := range c.order {
		if e != nil && (victim == nil || e.Prob < victim.Prob) {
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

// EvictOldest removes and returns the earliest-inserted entry (FIFO), or
// nil when empty. Provided for the eviction-policy ablation; the paper's
// rule is EvictLowest.
func (c *Cache) EvictOldest() *Entry {
	for _, e := range c.order {
		if e != nil {
			c.unlink(e)
			c.maybeCompact()
			return e
		}
	}
	return nil
}

// Entries returns the cached entries in insertion order. The slice is fresh
// but the entries are shared; callers may mutate Prob/ScheduledAt in place.
func (c *Cache) Entries() []*Entry {
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.order {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// ForEach calls fn for every cached entry in insertion order without
// allocating — the hot-path alternative to Entries. fn may mutate
// Prob/ScheduledAt in place and may remove entries, the one it was handed or
// any other: a removed entry not yet visited is skipped, and the order slice
// is compacted only once the outermost ForEach returns. fn must not insert.
func (c *Cache) ForEach(fn func(*Entry)) {
	c.walks++
	for _, e := range c.order {
		if e != nil {
			fn(e)
		}
	}
	c.walks--
	c.maybeCompact()
}

// IDs returns the cached ad IDs sorted for stable test output.
func (c *Cache) IDs() []ID {
	out := make([]ID, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Issuer != out[j].Issuer {
			return out[i].Issuer < out[j].Issuer
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// RemoveExpired deletes every entry whose ad has expired at time now and
// returns the removed entries in insertion order. The returned slice is a
// reused scratch buffer, valid until the next RemoveExpired call on this
// cache — consume it before calling again.
func (c *Cache) RemoveExpired(now float64) []*Entry {
	c.scratch = c.scratch[:0]
	for _, e := range c.order {
		if e != nil && e.Ad.Expired(now) {
			c.unlink(e)
			c.scratch = append(c.scratch, e)
		}
	}
	c.maybeCompact()
	return c.scratch
}
