package node

import (
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

// TestExpiryGateMatchesUngatedSweep drives a node's cache through random
// admissions (with Algorithm 5 enlarging some on the way in), duplicate
// merges that raise D, direct Enlarge calls and overflow evictions, and ticks
// the gated expiry sweep at irregular instants — among them exactly an ad's
// IssuedAt + D and one ulp either side. After every tick the cache must hold
// what the ungated sweep would have left: every ad not Expired at that
// instant, nothing else.
func TestExpiryGateMatchesUngatedSweep(t *testing.T) {
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, geo.Point{})
	cfg.ListenAddr, cfg.Transport = "mem:", sb.Transport()
	cfg.CacheK = 6
	cfg.Interests = []string{"petrol"}
	cfg.Popularity = core.PopularityConfig{Enabled: true, F: 8, L: 32, RInc: 50, DInc: 3, DMax: 40}
	n, err := New(cfg) // never started: the test is the only clock
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	rnd := rng.New(7)
	pos := geo.Point{}
	now := 100.0
	cached := func() []*ads.Entry { return n.cache.Entries() }
	pick := func() *ads.Entry {
		es := cached()
		if len(es) == 0 {
			return nil
		}
		return es[rnd.Intn(len(es))]
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var sweeps, skipped, expired int
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
				Sketch:   fm.New(8, 32, 1),
			}
			n.integrateAdLocked(now, pos, pos, geo.Vec{}, ad)
		case r < 0.40: // a duplicate that lived longer elsewhere
			if e := pick(); e != nil {
				dup := e.Ad.Clone()
				dup.D += rnd.Range(0, 4)
				n.integrateAdLocked(now, pos, pos, geo.Vec{}, dup)
			}
		case r < 0.45:
			if e := pick(); e != nil {
				core.Enlarge(e.Ad, 1+rnd.Intn(6), cfg.Popularity)
			}
		default: // a tick
			next := now + rnd.Exp(20)
			if e := pick(); e != nil && rnd.Bool(0.5) {
				// Land on the boundary the gate must not misjudge.
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
			var want []ads.ID
			for _, e := range cached() {
				if !e.Ad.Expired(now) {
					want = append(want, e.Ad.ID)
				}
			}
			before, bound := n.cache.Len(), n.nextExpiry
			n.expireLocked(now)
			var got []ads.ID
			for _, e := range cached() {
				got = append(got, e.Ad.ID)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, t=%v (bound %v): cache holds %v, ungated sweep leaves %v", step, now, bound, got, want)
			}
			if now < bound {
				skipped++
			} else {
				sweeps++
			}
			expired += before - len(got)
		}
		if n.cache.Len() > cfg.CacheK {
			t.Fatalf("step %d: cache holds %d > k", step, n.cache.Len())
		}
	}
	// The walk must have exercised both sides of the gate and real expiries.
	if sweeps < 100 || skipped < 100 || expired < 100 {
		t.Errorf("degenerate walk: %d sweeps, %d skipped ticks, %d ads expired", sweeps, skipped, expired)
	}
	t.Logf("%d sweeps, %d skipped ticks, %d ads expired, %d evicted", sweeps, skipped, expired, int(seq)-expired-n.cache.Len())
}
