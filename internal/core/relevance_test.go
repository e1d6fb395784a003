package core

import (
	"instantad/internal/mobility"
	"instantad/internal/rng"
	"instantad/internal/sim"
	"testing"
	"testing/quick"

	"instantad/internal/ads"
	"instantad/internal/geo"
)

func relevanceAd() *ads.Advertisement {
	return &ads.Advertisement{
		ID: ads.ID{Issuer: 1, Seq: 1}, Origin: geo.Point{X: 0, Y: 0},
		IssuedAt: 0, R: 500, D: 100,
	}
}

func TestRelevanceEndpoints(t *testing.T) {
	ad := relevanceAd()
	// Fresh at the origin: relevance 1.
	if r := Relevance(ad, 0, 0); r != 1 {
		t.Errorf("fresh at origin = %v, want 1", r)
	}
	// At the radius or at expiry: 0.
	if r := Relevance(ad, 500, 0); r != 0 {
		t.Errorf("at radius = %v, want 0", r)
	}
	if r := Relevance(ad, 0, 100); r != 0 {
		t.Errorf("at expiry = %v, want 0", r)
	}
	// Beyond either: still 0, never negative.
	if r := Relevance(ad, 900, 0); r != 0 {
		t.Errorf("beyond radius = %v", r)
	}
	if r := Relevance(ad, 0, 500); r != 0 {
		t.Errorf("beyond expiry = %v", r)
	}
	// Halfway in both: 0.25.
	if r := Relevance(ad, 250, 50); r != 0.25 {
		t.Errorf("halfway = %v, want 0.25", r)
	}
}

func TestRelevanceMonotoneProperty(t *testing.T) {
	ad := relevanceAd()
	f := func(d1Raw, d2Raw, t1Raw, t2Raw uint16) bool {
		d1 := float64(d1Raw) / 65535 * 600
		d2 := float64(d2Raw) / 65535 * 600
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		now := float64(t1Raw) / 65535 * 90
		if Relevance(ad, d1, now) < Relevance(ad, d2, now) {
			return false
		}
		n1 := float64(t1Raw) / 65535 * 120
		n2 := float64(t2Raw) / 65535 * 120
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		return Relevance(ad, 100, n1) >= Relevance(ad, 100, n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRelevanceExchangePropagationViaCarrier(t *testing.T) {
	// Issuer static at the origin, receiver static 2000 m away, a shuttle
	// commuting between them: delivery is only possible through encounter
	// exchange with the carrier.
	cfg := testConfig(RelevanceExchange)
	s := sim.New()
	issuerPos := geo.Point{X: 0, Y: 0}
	receiverPos := geo.Point{X: 2000, Y: 0}
	models := []mobility.Model{
		mobility.NewStatic(issuerPos),
		mobility.NewStatic(receiverPos),
		newShuttle(issuerPos, receiverPos, 20),
	}
	n, err := New(s, testRadio(), models, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 3000, D: 400}) })
	s.Run(400)
	if _, ok := obs.firsts[1]; !ok {
		t.Error("remote peer never received via encounter exchange")
	}
	if obs.broadcasts == 0 {
		t.Error("no exchanges happened")
	}
}

func TestRelevanceExchangeQuietWithoutEncounters(t *testing.T) {
	// Two static peers permanently in range: after the initial mutual
	// discovery there are no new encounters, so traffic stops quickly.
	cfg := testConfig(RelevanceExchange)
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	s, n := staticNet(t, cfg, pts)
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	s.Schedule(1, func() { _, _ = n.IssueAd(0, AdSpec{R: 500, D: 200}) })
	s.Run(200)
	// First poll sees the neighbor as new (one encounter per peer); after
	// that the neighborhood is stable. Allow a small constant budget.
	if obs.broadcasts > 6 {
		t.Errorf("static pair produced %d broadcasts, want a handful", obs.broadcasts)
	}
	if _, ok := obs.firsts[1]; !ok {
		t.Error("neighbor missed the initial exchange")
	}
}

func TestRelevanceCacheEvictsLeastRelevant(t *testing.T) {
	cfg := testConfig(RelevanceExchange)
	cfg.CacheK = 1
	pts := []geo.Point{
		{X: 0, Y: 0},   // issues ad A
		{X: 240, Y: 0}, // observed peer
		{X: 480, Y: 0}, // issues ad B
	}
	s, n := staticNet(t, cfg, pts)
	n.Start()
	var adA, adB *ads.Advertisement
	// Both origins are 240 m from peer 1; A's small R gives it distance
	// factor (1−240/300) = 0.2 there, while B's large R gives 0.8.
	s.Schedule(1, func() { adA, _ = n.IssueAd(0, AdSpec{R: 300, D: 300}) })
	s.Schedule(30, func() { adB, _ = n.IssueAd(2, AdSpec{R: 1200, D: 300}) })
	s.Run(120)
	c := n.Peer(1).Cache()
	if adA == nil || adB == nil {
		t.Fatal("ads not issued")
	}
	if c.Get(adB.ID) == nil {
		t.Error("high-relevance ad evicted")
	}
	if c.Get(adA.ID) != nil {
		t.Error("low-relevance ad kept despite k=1")
	}
}

func TestRelevanceExpiryDropsResources(t *testing.T) {
	cfg := testConfig(RelevanceExchange)
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	s, n := staticNet(t, cfg, pts)
	obs := newCountingObserver()
	n.SetObserver(obs)
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(1, func() { issued, _ = n.IssueAd(0, AdSpec{R: 500, D: 30}) })
	s.Run(120)
	for i := 0; i < n.NumPeers(); i++ {
		if n.Peer(i).Cache().Get(issued.ID) != nil {
			t.Errorf("peer %d still caches expired resource", i)
		}
	}
	if obs.expires == 0 {
		t.Error("no expiry events")
	}
}

func TestParseRelevanceExchangeName(t *testing.T) {
	p, err := ParseProtocol("Relevance Exchange")
	if err != nil || p != RelevanceExchange {
		t.Errorf("parse: %v %v", p, err)
	}
	if len(AllProtocols()) != len(Protocols())+2 {
		t.Error("AllProtocols should add exactly the comparator and the async family")
	}
}

// TestRelevanceOfflineRoundSensesNobody is the churn regression test: a peer
// that powers down for a round beside an unchanged neighbourhood must, once
// back on, treat that neighbourhood as an encounter and re-advertise. Its
// offline rounds used to record the neighbours it could not hear, so it came
// back to "nobody new" and stayed silent. Offline rounds still refresh and
// expire the cache.
func TestRelevanceOfflineRoundSensesNobody(t *testing.T) {
	cfg := testConfig(RelevanceExchange)
	pts := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	s, n := staticNet(t, cfg, pts)
	log := &eventLog{}
	n.SetObserver(log)
	n.Start()
	s.Schedule(1, func() {
		if _, err := n.IssueAd(0, AdSpec{R: 500, D: 300}); err != nil {
			t.Error(err)
		}
		if _, err := n.IssueAd(0, AdSpec{R: 500, D: 30}); err != nil {
			t.Error(err)
		}
	})
	// Both peers have met and gone quiet well before t = 20.
	s.Run(20)
	quiet := log.count("broadcast")
	s.Run(25)
	if got := log.count("broadcast"); got != quiet {
		t.Fatalf("a static pair still broadcasts after meeting: %d then %d", quiet, got)
	}
	// Peer 0 is off for two whole rounds (RoundTime 5), across the short ad's
	// expiry at t = 31, then on again; peer 1 never moved.
	if err := n.SetPeerOnline(0, false); err != nil {
		t.Fatal(err)
	}
	s.Run(36)
	if got := log.count("broadcast"); got != quiet {
		t.Errorf("a powered-down peer broadcast (%d frames)", got-quiet)
	}
	if log.count("expire") == 0 || n.peers[0].cache.Len() != 1 {
		t.Errorf("offline rounds did not expire the short ad: %d expiries, %d cached",
			log.count("expire"), n.peers[0].cache.Len())
	}
	if err := n.SetPeerOnline(0, true); err != nil {
		t.Fatal(err)
	}
	s.Run(42)
	var from0, from1 int
	for _, e := range log.events {
		if e.kind == "broadcast" && e.t > 36 {
			if e.peer == 0 {
				from0++
			} else {
				from1++
			}
		}
	}
	if from0 == 0 {
		t.Error("back beside the same neighbour, the peer detected no encounter and did not re-advertise")
	}
	// Peer 1 saw peer 0 vanish from and return to its neighbourhood: an
	// encounter on its side too, as before the fix.
	if from1 == 0 {
		t.Error("the neighbour did not treat the returning peer as an encounter")
	}
}
