package ads

import (
	"fmt"
	"testing"
)

// benchAd builds a distinct ad for slot i with the given expiry horizon.
func benchAd(i int, d float64) *Advertisement {
	return &Advertisement{
		ID:       ID{Issuer: uint32(i), Seq: uint32(i)},
		IssuedAt: 0,
		R:        500,
		D:        d,
		Category: "bench",
	}
}

// fullCache returns a cache of capacity k holding k distinct ads, and the ads.
func fullCache(k int) (*Cache, []*Advertisement) {
	c := NewCache(k)
	ads := make([]*Advertisement, k)
	for i := range ads {
		ads[i] = benchAd(i, 1e9)
		c.Insert(ads[i], 0.5)
	}
	return c, ads
}

// BenchmarkCacheRemove measures targeted removal plus reinsertion on a full
// cache — the pattern entry-timer expiry and eviction follow — at the
// capacities the workloads use: 10 in the scenarios and adnode, 16 in the
// fleet and campaignd. Removal is linear in k; no workload or default uses
// k > 20.
func BenchmarkCacheRemove(b *testing.B) {
	for _, k := range []int{10, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			c, ads := fullCache(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				victim := ads[i%k]
				if c.Remove(victim.ID) == nil {
					b.Fatal("missing entry")
				}
				c.Insert(victim, 0.5)
			}
		})
	}
}

// BenchmarkCacheGet measures the lookup every delivery starts with, on a full
// cache: a hit at each position in turn, and a miss, which reads every id.
// Both must stay at 0 allocs/op.
func BenchmarkCacheGet(b *testing.B) {
	for _, k := range []int{10, 16} {
		c, ads := fullCache(k)
		b.Run(fmt.Sprintf("k=%d/hit", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.Get(ads[i%k].ID) == nil {
					b.Fatal("missing entry")
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/miss", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.Get(ID{Issuer: 1 << 31}) != nil {
					b.Fatal("absent id found")
				}
			}
		})
	}
}

// BenchmarkCacheChurn mixes inserts, lowest-probability evictions and, every
// seventh step, a walk that drops the expired entries — the full Algorithm 1
// overflow cycle plus the live node's expiry sweep.
func BenchmarkCacheChurn(b *testing.B) {
	const k = 10
	c := NewCache(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := benchAd(i, float64(i%50)+1)
		if _, overflow := c.Insert(ad, float64(i%97)/97); overflow {
			c.EvictLowest()
		}
		if i%7 == 0 {
			now := float64(i % 45)
			c.ForEach(func(e *Entry) {
				if e.Ad.Expired(now) {
					c.Remove(e.Ad.ID)
				}
			})
		}
	}
}
