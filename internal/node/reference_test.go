package node

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/rng"
)

// refPrune is the sweep pruneSeenLocked replaced: every round it walks the
// whole dedup set and the whole serve block table, whatever they hold, and
// deletes the IDs expired before now and the blocks lapsed at wall. It
// returns how many IDs it deleted.
func refPrune(seen map[ads.ID]float64, served map[string]time.Time, now float64, wall time.Time) (pruned uint64) {
	for id, exp := range seen {
		if exp < now {
			delete(seen, id)
			pruned++
		}
	}
	for addr, until := range served {
		if !until.After(wall) {
			delete(served, addr)
		}
	}
	return pruned
}

// TestPruneMatchesReference runs the gated sweep against refPrune over random
// sequences of first receives, duplicates with a larger or smaller D, serve
// blocks and sweeps on advancing clocks: after every sweep both maps and the
// SeenPruned count must equal the reference's. The log counts how often each
// map's walk ran and was skipped; the test fails if either path is missed.
func TestPruneMatchesReference(t *testing.T) {
	r := rng.New(52)
	var seenWalks, seenSkips, servedWalks, servedSkips, sweeps int
	for seq := 0; seq < 200; seq++ {
		n := &Node{seen: map[ads.ID]float64{}, served: map[string]time.Time{}}
		refSeen, refServed := map[ads.ID]float64{}, map[string]time.Time{}
		var refPruned uint64
		now, wall := r.Range(-5, 5), time.Unix(1_000_000, 0)
		for op := 0; op < 300; op++ {
			switch r.Intn(4) {
			case 0: // an ad heard: its ID from a small pool, so duplicates are common
				ad := &ads.Advertisement{
					ID:       ads.ID{Issuer: uint32(r.Intn(4)), Seq: uint32(r.Intn(8))},
					IssuedAt: now - r.Range(0, 3),
					D:        r.Range(0, 5),
				}
				n.markSeenLocked(ad)
				if old, ok := refSeen[ad.ID]; !ok || ad.IssuedAt+ad.D > old {
					refSeen[ad.ID] = ad.IssuedAt + ad.D
				}
			case 1: // a pull served: the puller is blocked for a while
				addr := fmt.Sprintf("mem:%d", r.Intn(6))
				until := wall.Add(time.Duration(r.Intn(400)) * time.Millisecond)
				n.blockServeLocked(addr, until)
				refServed[addr] = until
			case 2:
				now += r.Range(0, 1)
				wall = wall.Add(time.Duration(r.Intn(200)) * time.Millisecond)
			case 3:
				sweeps++
				if n.seenNext < now {
					seenWalks++
				} else {
					seenSkips++
				}
				if len(n.served) > 0 && !n.servedNext.After(wall) {
					servedWalks++
				} else {
					servedSkips++
				}
				n.pruneSeenLocked(now, wall)
				refPruned += refPrune(refSeen, refServed, now, wall)
				if !maps.Equal(n.seen, refSeen) {
					t.Fatalf("sequence %d, op %d: seen %v, reference %v", seq, op, n.seen, refSeen)
				}
				if !maps.Equal(n.served, refServed) {
					t.Fatalf("sequence %d, op %d: served %v, reference %v", seq, op, n.served, refServed)
				}
				if got := n.ctr.SeenPruned.Value(); got != refPruned {
					t.Fatalf("sequence %d, op %d: SeenPruned %d, reference %d", seq, op, got, refPruned)
				}
			}
		}
	}
	t.Logf("%d sweeps: seen walked %d, skipped %d; served walked %d, skipped %d",
		sweeps, seenWalks, seenSkips, servedWalks, servedSkips)
	if seenWalks == 0 || seenSkips == 0 || servedWalks == 0 || servedSkips == 0 {
		t.Error("a sweep path never ran: the sequences do not cover the gate")
	}
}
