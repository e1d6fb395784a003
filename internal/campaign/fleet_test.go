package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"instantad/internal/core"
)

func TestFleetConfigValidation(t *testing.T) {
	bad := []FleetConfig{
		{Nodes: 0},
		{Nodes: 4, Spacing: -1},
		{Nodes: 4, Spacing: math.NaN()},
		{Nodes: 4, Spacing: math.Inf(1)},
		{Nodes: 4, Spacing: math.Inf(-1)},
		{Nodes: 4, Range: -1},
		{Nodes: 4, Range: math.NaN()},
		{Nodes: 4, Range: math.Inf(1)},
		{Nodes: 4, Range: math.Inf(-1)},
		{Nodes: 4, Loss: -0.1},
		{Nodes: 4, Loss: 1.1},
		{Nodes: 4, Loss: math.NaN()},
		{Nodes: 4, Loss: math.Inf(1)},
		{Nodes: 4, Loss: math.Inf(-1)},
	}
	for i, cfg := range bad {
		if err := cfg.norm(); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	good := FleetConfig{Nodes: 4}
	if err := good.norm(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func TestFleetWiringAndInject(t *testing.T) {
	fl, err := NewFleet(FleetConfig{
		Nodes: 16, Spacing: 150, Range: 230,
		RoundTime: 40 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	if fl.NodeCount() != 16 {
		t.Fatalf("nodes %d", fl.NodeCount())
	}
	// On a jittered grid with range > spacing, every node has static peers
	// (beacons are off, so adjacency shows up as peers, not neighbors).
	tot := fl.Totals()
	if tot.PeersLive == 0 {
		t.Fatal("no adjacency wired")
	}

	center := fl.Position(5)
	id, origin, err := fl.Inject(center, core.AdSpec{
		R: 400, D: 10, Category: "food", Text: "smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fl.Has(origin, id) {
		t.Fatal("origin node does not hold its own ad")
	}

	// ProbeSet may include the origin; callers (the scheduler) filter it.
	var probes []int
	for _, p := range fl.ProbeSet(center, 400, 8) {
		if p != origin {
			probes = append(probes, p)
		}
	}
	if len(probes) == 0 {
		t.Fatal("empty probe set")
	}

	// Gossip should reach the probes well within the ad lifetime.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got := 0
		for _, p := range probes {
			if fl.Has(p, id) {
				got++
			}
		}
		if got == len(probes) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("ad did not reach all probes")
}

func TestFleetProbeSetGeometry(t *testing.T) {
	fl, err := NewFleet(FleetConfig{
		Nodes: 36, Spacing: 150, Range: 230,
		RoundTime: time.Hour, Seed: 4, // rounds never fire; geometry only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	center := fl.Position(0)
	// A tiny radius around node 0 must exclude far corners.
	probes := fl.ProbeSet(center, 200, 64)
	for _, p := range probes {
		if d := fl.Position(p).Dist(center); d > 200 {
			t.Fatalf("probe %d at distance %.0f > 200", p, d)
		}
	}
	// The cap is respected.
	if got := fl.ProbeSet(center, 1e9, 5); len(got) > 5 {
		t.Fatalf("probe cap ignored: %d", len(got))
	}
}

// TestFleetConcurrentIngest is the race-detector smoke: a live scheduler
// stepping the fleet while HTTP clients hammer create/status/list/cancel
// and a reader walks fleet totals. Run under -race in CI.
func TestFleetConcurrentIngest(t *testing.T) {
	srv, ts := testServer(t, Admission{MaxLiveAds: 64}, "")

	var wg sync.WaitGroup
	stop := time.Now().Add(1500 * time.Millisecond)

	// Writers: create campaigns (some will 429 under the cap — fine).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				resp := postJSON(t, ts.URL+"/v1/campaigns", strings.ReplaceAll(specJSON, "%s", name))
				resp.Body.Close()
				time.Sleep(20 * time.Millisecond)
			}
		}(w)
	}
	// Readers: status, list, fleet.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				for _, p := range []string{"/v1/campaigns", "/v1/campaigns/c-1/status", "/v1/fleet"} {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	// Canceller: tear down early campaigns while they run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; time.Now().Before(stop); i++ {
			req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/campaigns/c-%d", ts.URL, i), nil)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			time.Sleep(60 * time.Millisecond)
		}
	}()
	// Direct embedder-API reader alongside the HTTP surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			_ = srv.Store().LiveAds(time.Now())
			_ = srv.Scheduler().Signals(time.Now())
			_ = fleetTotalsProbe(srv)
			time.Sleep(15 * time.Millisecond)
		}
	}()
	wg.Wait()

	// The world is still coherent afterwards.
	resp, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []Campaign
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) == 0 {
		t.Fatal("no campaigns survived concurrent ingest")
	}
	created := 0
	for _, c := range list {
		if c.State == StateActive || c.State == StatePending || c.State == StateDone || c.State == StateCancelled {
			created++
		}
	}
	if created != len(list) {
		t.Fatalf("campaign in unknown state: %+v", list)
	}
}

func fleetTotalsProbe(srv *Server) int {
	tot := srv.sched.fl.Totals()
	return int(tot.Sent)
}
