package node

import (
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/node/memnet"
	"instantad/internal/obs"
)

// The 10× soak: the fault soak gossips 40 ads; this one pushes 400 through
// a lossy five-node memnet mesh with the batched wire layer and digests on,
// and measures the medium's datagram bill per delivered ad. It is the
// acceptance test for the batched wire layer: a bounded datagram bill, digest
// hits non-zero, no frame past the soft cap. The benchmark's live_fleet
// workload reports the same bill at fleet scale as datagrams_per_ad.
const (
	soakNodes      = 5
	soakAdsPerNode = 80 // × 5 nodes = 400 ads, 10× the PR-2 soak's 40
	soakAdD        = 3600.0
	soakRound      = 30 * time.Millisecond
	soakLoss       = 0.25
	soakCacheK     = 512
	// soakMaxDatagramsPerAd bounds the bill: half the 7.5 datagrams per
	// delivered ad that one frame per ad per peer used to cost here (the
	// batched stack reads about 1.1).
	soakMaxDatagramsPerAd = 3.75
)

// soakResult is one soak run's ledger.
type soakResult struct {
	converged     bool
	elapsed       time.Duration
	datagrams     uint64  // medium deliveries (ads + digests + pulls)
	bytes         uint64  // payload bytes the medium carried
	maxDatagram   uint64  // largest single datagram
	deliveries    int     // ad deliveries required: ads × (nodes-1)
	digestsSent   uint64  // across all nodes
	digestHits    uint64  // across all nodes
	pulledAds     uint64  // across all nodes
	batchesSent   uint64  // across all nodes
	avgBatchAds   float64 // mean ads per sent batch frame (histogram)
	avgBatchBytes float64 // mean bytes per sent batch frame (histogram)
}

func (r soakResult) datagramsPerAd() float64 {
	if r.deliveries == 0 {
		return 0
	}
	return float64(r.datagrams) / float64(r.deliveries)
}

func (r soakResult) bytesPerAd() float64 {
	if r.deliveries == 0 {
		return 0
	}
	return float64(r.bytes) / float64(r.deliveries)
}

func (r soakResult) digestHitRate() float64 {
	if r.digestsSent == 0 {
		return 0
	}
	return float64(r.digestHits) / float64(r.digestsSent)
}

// runMemnetSoak gossips the 10× ad load across a lossy full mesh until every
// node has heard every ad, then a settle period so digest rounds demonstrate
// the anti-entropy steady state.
func runMemnetSoak(tb testing.TB, timeout time.Duration) soakResult {
	tb.Helper()
	sb, err := memnet.New(memnet.Config{Loss: soakLoss, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	epoch := time.Now()
	nodes := make([]*Node, soakNodes)
	for i := range nodes {
		cfg := testConfig(uint32(i), geo.Point{X: float64(i) * 10})
		cfg.ListenAddr = "mem:"
		cfg.Transport = sb.Transport()
		cfg.RoundTime = soakRound
		cfg.CacheK = soakCacheK
		cfg.DigestEvery = 2
		cfg.Registry = obs.NewRegistry() // for the batch-size histograms
		n, err := New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		n.SetEpoch(epoch)
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				if err := a.AddPeer(b.Addr()); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	for _, n := range nodes {
		n.Start()
	}
	start := time.Now()
	issued := make([]ads.ID, 0, soakNodes*soakAdsPerNode)
	for _, n := range nodes {
		for k := 0; k < soakAdsPerNode; k++ {
			ad, err := n.Issue(core.AdSpec{R: 1500, D: soakAdD, Category: "petrol", Text: "soak load"})
			if err != nil {
				tb.Fatal(err)
			}
			issued = append(issued, ad.ID)
		}
	}
	converged := func() bool {
		for _, n := range nodes {
			for _, id := range issued {
				if !n.Has(id) {
					return false
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(timeout)
	ok := false
	for time.Now().Before(deadline) {
		if converged() {
			ok = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The datagram bill is judged at convergence: how much did the medium
	// carry to get every ad everywhere.
	st := sb.Stats()
	if ok {
		// Settle: with every cache converged, further digest rounds must be
		// hits — the steady state where neighbors trade IDs, not payloads.
		time.Sleep(10 * soakRound)
	}
	res := soakResult{
		converged:  ok,
		elapsed:    time.Since(start),
		deliveries: len(issued) * (soakNodes - 1),
	}
	for _, n := range nodes {
		_ = n.Close()
	}
	res.datagrams = st.Delivered
	res.bytes = st.DeliveredBytes
	res.maxDatagram = sb.Stats().MaxDatagram // including the settle traffic
	for _, n := range nodes {
		s := n.Stats()
		res.digestsSent += s.DigestsSent
		res.digestHits += s.DigestHits
		res.pulledAds += s.PulledAds
		res.batchesSent += s.BatchesSent
		// One batch-size observation per batch frame sent.
		if c := float64(s.BatchesSent); c > 0 {
			res.avgBatchAds += n.hist.batchAds.Sum() / c / float64(soakNodes)
			res.avgBatchBytes += n.hist.batchBytes.Sum() / c / float64(soakNodes)
		}
	}
	return res
}

// TestMemnetSoak10x is the wire-layer acceptance soak (run under -race in
// CI): the batched stack must converge the 10× load within the datagram
// bound, produce digest hits, keep multi-ad frames under the soft cap, and
// pack non-trivially.
func TestMemnetSoak10x(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 10× memnet soak")
	}
	batched := runMemnetSoak(t, 60*time.Second)
	if !batched.converged {
		t.Fatalf("batched run never converged: %+v", batched)
	}
	t.Logf("%.2f datagrams/ad, %.0f bytes/ad, %d batches, avg %.1f ads/batch, hit rate %.2f, %v",
		batched.datagramsPerAd(), batched.bytesPerAd(), batched.batchesSent,
		batched.avgBatchAds, batched.digestHitRate(), batched.elapsed)
	if batched.datagramsPerAd() > soakMaxDatagramsPerAd {
		t.Errorf("wire layer spent %.2f datagrams per delivered ad, want ≤ %.2f",
			batched.datagramsPerAd(), soakMaxDatagramsPerAd)
	}
	if batched.digestHits == 0 {
		t.Error("no digest hits: anti-entropy never reached steady state")
	}
	if batched.maxDatagram > defaultBatchSoftCap {
		t.Errorf("a %d-byte frame crossed the medium, above the %d soft cap",
			batched.maxDatagram, defaultBatchSoftCap)
	}
	if batched.avgBatchAds < 2 {
		t.Errorf("average batch carried %.2f ads: packing is trivial", batched.avgBatchAds)
	}
	// Pulls only fire when a digest beats gossip to a gap, which is timing-
	// dependent here; the deterministic digest→pull exchange is pinned by
	// TestDigestPullServesMissingAds instead.
	t.Logf("pulled ads: %d", batched.pulledAds)
}
