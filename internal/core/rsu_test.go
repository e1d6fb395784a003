package core

import (
	"testing"

	"instantad/internal/ads"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// TestRSUBackhaulSync places two RSUs far outside radio range of each other
// and issues an ad at the first: the second must still receive it, via the
// wired backhaul, without any radio broadcast crossing the gap.
func TestRSUBackhaulSync(t *testing.T) {
	cfg := testConfig(Gossip)
	cfg.RSUPeers = []int{0, 1}
	// Default radio range is far below 5000 m, so only the backhaul connects
	// the two units.
	s, n := staticNet(t, cfg, []geo.Point{{X: 0, Y: 0}, {X: 5000, Y: 0}})
	o := newCountingObserver()
	n.SetObserver(o)
	reg := obs.NewRegistry()
	n.InstrumentWith(reg)
	n.Start()

	if _, err := n.IssueAd(0, AdSpec{R: 10000, D: 500, Category: "food"}); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * cfg.RoundTime)

	if !n.Peer(1).HasReceived(ads.ID{Issuer: 0, Seq: 0}) {
		t.Fatal("far RSU never received the ad over the backhaul")
	}
	if n.Peer(1).Cache().Get(ads.ID{Issuer: 0, Seq: 0}) == nil {
		t.Fatal("far RSU received but did not cache the ad")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim_rsu_syncs_total"]; got != 1 {
		t.Fatalf("sim_rsu_syncs_total = %v, want 1", got)
	}
	// Both units count as deliveries: the issuer self-delivers, the far unit
	// hears over the backhaul.
	if got := snap.Counters["sim_rsu_deliveries_total"]; got != 2 {
		t.Fatalf("sim_rsu_deliveries_total = %v, want 2", got)
	}
	if got := snap.Gauges["sim_rsus"]; got != 2 {
		t.Fatalf("sim_rsus = %v, want 2", got)
	}
}

// TestRSUBackhaulNoRadioTraffic verifies the backhaul is a wire, not a radio:
// with the units out of radio range of everything, no frame is ever
// delivered over the channel, yet the ad still crosses between them and the
// sync fires no OnBroadcast.
func TestRSUBackhaulNoRadioTraffic(t *testing.T) {
	cfg := testConfig(Gossip)
	cfg.RSUPeers = []int{0, 1}
	s, n := staticNet(t, cfg, []geo.Point{{X: 0, Y: 0}, {X: 5000, Y: 0}})
	o := newCountingObserver()
	n.SetObserver(o)
	n.Start()
	// R far beyond both units so the RSU override (prob 1 inside the radius)
	// would broadcast each round — but broadcasts can't bridge 5000 m, so the
	// far unit's only path is the backhaul.
	if _, err := n.IssueAd(0, AdSpec{R: 10000, D: 500, Category: "x"}); err != nil {
		t.Fatal(err)
	}
	s.Run(2 * cfg.RoundTime)
	if !n.Peer(1).HasReceived(ads.ID{Issuer: 0, Seq: 0}) {
		t.Fatal("backhaul did not deliver")
	}
	if _, ok := o.firsts[1]; !ok {
		t.Fatal("backhaul delivery did not fire OnFirstReceive")
	}
	if got := n.Channel().Stats().Deliveries; got != 0 {
		t.Fatalf("channel delivered %d frames across a 5000 m gap", got)
	}
}

// TestRSUForwardProb checks the infrastructure override: inside the ad's
// current radius an RSU relays with probability exactly 1, outside exactly 0,
// regardless of the protocol's probability function.
func TestRSUForwardProb(t *testing.T) {
	cfg := testConfig(GossipOpt)
	cfg.RSUPeers = []int{1}
	_, n := staticNet(t, cfg, []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}})
	ad, err := n.IssueAd(0, AdSpec{R: 150, D: 500, Category: "x"})
	if err != nil {
		t.Fatal(err)
	}
	rsu, mobile := n.Peer(1), n.Peer(2)
	if got := n.rules.prob(ad, rsu.IsRSU(), geo.Point{X: 100, Y: 0}, 0); got != 1 {
		t.Fatalf("RSU inside radius: prob %v, want 1", got)
	}
	if got := n.rules.prob(ad, rsu.IsRSU(), geo.Point{X: 400, Y: 0}, 0); got != 0 {
		t.Fatalf("RSU outside radius: prob %v, want 0", got)
	}
	if got := n.rules.prob(ad, mobile.IsRSU(), geo.Point{X: 100, Y: 0}, 0); got <= 0 || got >= 1 {
		t.Fatalf("mobile peer prob %v, want strictly between 0 and 1", got)
	}
	if !n.Peer(1).IsRSU() || n.Peer(0).IsRSU() || n.Peer(2).IsRSU() {
		t.Fatal("IsRSU flags wrong")
	}
	if got := n.RSUs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("RSUs() = %v, want [1]", got)
	}
}

// TestRSUNoBackhaulUnderFlooding pins the baseline purity rule: the backhaul
// only runs for gossip variants.
func TestRSUNoBackhaulUnderFlooding(t *testing.T) {
	cfg := testConfig(Flooding)
	cfg.RSUPeers = []int{0, 1}
	s, n := staticNet(t, cfg, []geo.Point{{X: 0, Y: 0}, {X: 5000, Y: 0}})
	reg := obs.NewRegistry()
	n.InstrumentWith(reg)
	n.Start()
	if _, err := n.IssueAd(0, AdSpec{R: 10000, D: 500, Category: "x"}); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * cfg.RoundTime)
	if got := reg.Snapshot().Counters["sim_rsu_syncs_total"]; got != 0 {
		t.Fatalf("flooding ran the backhaul: %v syncs", got)
	}
}

func TestRSUConfigRejects(t *testing.T) {
	for _, bad := range [][]int{{-1}, {99}, {0, 0}} {
		cfg := testConfig(Gossip)
		cfg.RSUPeers = bad
		models := []mobility.Model{
			mobility.NewStatic(geo.Point{X: 0, Y: 0}),
			mobility.NewStatic(geo.Point{X: 10, Y: 0}),
		}
		if _, err := New(sim.New(), testRadio(), models, cfg, rng.New(1)); err == nil {
			t.Errorf("accepted RSUPeers %v on a 2-peer network", bad)
		}
	}
}
