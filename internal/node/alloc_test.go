package node

import (
	"fmt"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/memnet"
	"instantad/internal/node/transport"
	"instantad/internal/testutil"
)

// allocNode builds an unstarted memnet node with popularity and Opt2 on, so
// a duplicate's merge reads a sketch and postpones its entry, plus receive
// endpoints it sends to: its peers.
func allocNode(tb testing.TB, peers int) (*Node, []transport.PacketConn) {
	tb.Helper()
	sb, err := memnet.New(memnet.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := testConfig(1, geo.Point{})
	cfg.ListenAddr, cfg.Transport = "mem:", sb.Transport()
	cfg.Opt2, cfg.Interests = true, []string{"petrol"}
	cfg.Popularity = core.PopularityConfig{Enabled: true, F: 8, L: 32, SketchSeed: 3, RInc: 60, DInc: 5, RMax: 900, DMax: 90}
	var rx []transport.PacketConn
	for i := range peers {
		c, err := sb.Listen(fmt.Sprintf("mem:rx%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = c.Close() })
		rx = append(rx, c)
		cfg.Peers = append(cfg.Peers, c.LocalAddr())
	}
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = n.Close() })
	return n, rx
}

// allocAds are ads as a node's rules issue them, with keywords and a
// sketch, so a decode has every field to fill.
func allocAds(tb testing.TB, n *Node, count int) []*ads.Advertisement {
	tb.Helper()
	var list []*ads.Advertisement
	for i := range count {
		ad, err := n.rules.NewAd(ads.ID{Issuer: 9, Seq: uint32(i)}, geo.Point{X: 10}, 0, core.AdSpec{
			R: 400, D: 9000, Category: "petrol", Keywords: []string{"diesel", "cheap"},
			Text: fmt.Sprintf("ad %d: unleaded 91 at $1.45/L", i),
		})
		if err != nil {
			tb.Fatal(err)
		}
		ad.Sketch.Add(uint64(100 + i))
		list = append(list, ad)
	}
	return list
}

// drainAll empties every receive queue.
func drainAll(rx []transport.PacketConn) (datagrams int) {
	for _, c := range rx {
		for {
			if _, _, ok, _ := c.TryRead(); !ok {
				break
			}
			datagrams++
		}
	}
	return datagrams
}

// TestBatchAllocationsIndependentOfTargets pins that a broadcast is one
// encoded frame whatever the neighbourhood: a gossip round's batch sent to 16
// memnet peers costs the allocations one sent to a single peer does, because
// every receiver reads the one buffer.
func TestBatchAllocationsIndependentOfTargets(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	allocs := map[int]float64{}
	for _, peers := range []int{1, 16} {
		n, rx := allocNode(t, peers)
		list := allocAds(t, n, 4)
		send := func() {
			n.gossipOut(list, 1)
			if got := drainAll(rx); got != peers {
				t.Fatalf("%d peers received %d datagrams, want one each", peers, got)
			}
		}
		send() // grows the receive rings
		allocs[peers] = testing.AllocsPerRun(100, send)
	}
	t.Logf("allocations per broadcast by peers: %v", allocs)
	if allocs[16] != allocs[1] {
		t.Errorf("a batch sent to 16 peers costs %v allocations, to 1 peer %v: want the same", allocs[16], allocs[1])
	}
}

// duplicateFrame caches the ads on n by dispatching their batch once, and
// returns that batch: from then on each of its items is a duplicate.
func duplicateFrame(tb testing.TB, n *Node, list []*ads.Advertisement) []byte {
	tb.Helper()
	frame := batchDatagram(tb, 9, geo.Point{X: 10}, list...)
	n.dispatch(frame, "mem:from")
	for _, ad := range list {
		if n.cache.Get(ad.ID) == nil {
			tb.Fatalf("%v was not admitted", ad.ID)
		}
	}
	return frame
}

// TestDuplicateBatchItemAllocatesNothing pins the receive path's common case:
// a batch whose ads the node already caches — keywords, sketch and all — is
// decoded into scratch over the cached copies, merged and postponed, with no
// allocation.
func TestDuplicateBatchItemAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	n, _ := allocNode(t, 0)
	frame := duplicateFrame(t, n, allocAds(t, n, 3))
	before := n.Stats()
	got := testing.AllocsPerRun(100, func() { n.dispatch(frame, "mem:from") })
	after := n.Stats()
	if d := after.Duplicates - before.Duplicates; d != 3*101 {
		t.Fatalf("%d duplicates counted, want %d", d, 3*101)
	}
	if after.Malformed != before.Malformed {
		t.Fatal("the duplicate batch was refused")
	}
	if got != 0 {
		t.Errorf("a duplicate batch costs %v allocations in dispatch, want 0", got)
	}
}

// TestDigestAllocatesNothing pins that a digest the node fully covers — the
// anti-entropy steady state — decodes into scratch and is answered with no
// allocation.
func TestDigestAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	n, _ := allocNode(t, 0)
	list := allocAds(t, n, 8)
	duplicateFrame(t, n, list)
	digest := digestOf(t, list)
	before := n.Stats()
	got := testing.AllocsPerRun(100, func() { n.dispatch(digest, "mem:from") })
	if hits := n.Stats().DigestHits - before.DigestHits; hits != 101 {
		t.Fatalf("%d digest hits, want 101", hits)
	}
	if got != 0 {
		t.Errorf("a digest costs %v allocations in dispatch, want 0", got)
	}
}

// digestOf encodes a digest of the ads' IDs from a sender in range.
func digestOf(tb testing.TB, list []*ads.Advertisement) []byte {
	tb.Helper()
	f := idFrame{Sender: 9, Pos: geo.Point{X: 10}}
	for _, ad := range list {
		f.IDs = append(f.IDs, ad.ID)
	}
	data, err := f.encode(digestMagic)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// BenchmarkDispatchDuplicateBatch is TestDuplicateBatchItemAllocatesNothing's
// dispatch of a batch of three cached ads, for the allocation guard.
func BenchmarkDispatchDuplicateBatch(b *testing.B) {
	n, _ := allocNode(b, 0)
	frame := duplicateFrame(b, n, allocAds(b, n, 3))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		n.dispatch(frame, "mem:from")
	}
}

// BenchmarkDispatchDigest is TestDigestAllocatesNothing's dispatch of a
// digest of eight cached ads, for the allocation guard.
func BenchmarkDispatchDigest(b *testing.B) {
	n, _ := allocNode(b, 0)
	list := allocAds(b, n, 8)
	duplicateFrame(b, n, list)
	digest := digestOf(b, list)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		n.dispatch(digest, "mem:from")
	}
}
