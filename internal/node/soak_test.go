package node

import (
	"sync"
	"testing"
	"time"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
)

// TestSoakUnderFaultInjection is the daemon-hardening acceptance test: a
// four-node chain whose every link runs through a FaultProxy injecting 20%
// loss plus duplicates, reordering, truncation and garbage, gossiping a
// stream of short-lived ads for several seconds. It asserts the layer's
// production properties under fire:
//
//   - zero panics and no goroutine wedges (the test finishes; -race in CI
//     additionally proves the absence of data races under this load),
//   - end-to-end multi-hop delivery keeps working: the far end of the chain
//     is 600m from the issuer with a 250m radio, so every delivery takes at
//     least two relay hops across lossy links,
//   - the seen set stays bounded by the live-ad population (O(live ads),
//     not O(all ads ever heard)) and drains once the traffic stops,
//   - the malformed-datagram path absorbs garbage and truncation quietly.
func TestSoakUnderFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection soak")
	}
	const (
		nodes    = 4
		spacing  = 200.0 // meters; radio range 250 → only neighbors hear
		adCount  = 40
		adEvery  = 150 * time.Millisecond
		adR      = 1500.0
		adD      = 1.2 // seconds
		round    = 30 * time.Millisecond
		liveSeen = 20 // generous bound on live ads + one-round prune lag
	)
	faults := FaultConfig{
		Drop:         0.20,
		Duplicate:    0.10,
		Reorder:      0.10,
		ReorderDelay: 40 * time.Millisecond,
		Truncate:     0.05,
		Garbage:      0.05,
	}

	epoch := time.Now()
	cluster := make([]*Node, nodes)
	for i := range cluster {
		cfg := testConfig(uint32(i), geo.Point{X: float64(i) * spacing})
		cfg.RoundTime = round
		cfg.CacheK = 16
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetEpoch(epoch)
		cluster[i] = n
	}
	t.Cleanup(func() {
		for _, n := range cluster {
			_ = n.Close()
		}
	})
	// Wire every adjacent directed link through its own fault proxy.
	var seed uint64
	for i := 0; i < nodes; i++ {
		for _, j := range []int{i - 1, i + 1} {
			if j < 0 || j >= nodes {
				continue
			}
			seed++
			cfg := faults
			cfg.Seed = seed
			proxy, err := NewFaultProxy(cluster[j].Addr(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = proxy.Close() })
			if err := cluster[i].AddPeer(proxy.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range cluster {
		n.Start()
	}

	// Track deliveries at the far end and the seen-set high-water mark
	// while ads are live (Has reverts to false after expiry by design).
	var mu sync.Mutex
	delivered := make(map[ads.ID]bool)
	pending := make(map[ads.ID]bool)
	maxSeen := make([]int, nodes)
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		far := cluster[nodes-1]
		for {
			select {
			case <-stopWatch:
				return
			case <-time.After(10 * time.Millisecond):
			}
			mu.Lock()
			for id := range pending {
				if far.Has(id) {
					delivered[id] = true
					delete(pending, id)
				}
			}
			mu.Unlock()
			for i, n := range cluster {
				if s := int(n.Stats().SeenLive); s > maxSeen[i] {
					maxSeen[i] = s
				}
			}
		}
	}()

	for k := 0; k < adCount; k++ {
		ad, err := cluster[0].Issue(core.AdSpec{R: adR, D: adD, Category: "petrol", Text: "soak"})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		pending[ad.ID] = true
		mu.Unlock()
		time.Sleep(adEvery)
	}
	// Drain: let the last ads live out their D, then a few rounds for the
	// prune sweep.
	time.Sleep(time.Duration(adD*float64(time.Second)) + 20*round)
	close(stopWatch)
	watchWG.Wait()

	mu.Lock()
	got := len(delivered)
	mu.Unlock()
	if min := adCount * 6 / 10; got < min {
		t.Errorf("only %d/%d ads crossed the lossy multi-hop chain (want ≥ %d)", got, adCount, min)
	}
	for i, n := range cluster {
		st := n.Stats()
		if maxSeen[i] >= adCount {
			t.Errorf("node %d seen set peaked at %d: unbounded by live ads (%d issued)", i, maxSeen[i], adCount)
		}
		if maxSeen[i] > liveSeen {
			t.Errorf("node %d seen set peaked at %d, above the live bound %d", i, maxSeen[i], liveSeen)
		}
		if st.SeenLive > 4 {
			t.Errorf("node %d still holds %d seen IDs after the drain", i, st.SeenLive)
		}
		if i > 0 && st.SeenPruned == 0 && st.Received > 0 {
			t.Errorf("node %d never pruned despite receiving %d ads", i, st.Received)
		}
	}
	// Garbage and truncation must have hit the malformed path somewhere.
	var malformed, received uint64
	for _, n := range cluster {
		malformed += n.Stats().Malformed
		received += n.Stats().Received
	}
	if malformed == 0 {
		t.Error("no malformed datagrams observed despite garbage injection")
	}
	if received == 0 {
		t.Error("no traffic flowed at all")
	}
}
