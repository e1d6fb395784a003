package experiment

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing/quick"

	"instantad/internal/mobility"
	"instantad/internal/rng"
	"strings"
	"testing"

	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/trace"
)

// quickScenario is a scaled-down canonical scenario for fast tests.
func quickScenario() Scenario {
	sc := DefaultScenario()
	sc.NumPeers = 120
	sc.D = 120
	sc.SimTime = 300
	return sc
}

func TestDefaultScenarioValid(t *testing.T) {
	if err := DefaultScenario().Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
}

func TestScenarioValidation(t *testing.T) {
	mutations := []func(*Scenario){
		func(sc *Scenario) { sc.FieldW = 0 },
		func(sc *Scenario) { sc.NumPeers = 0 },
		func(sc *Scenario) { sc.SimTime = sc.IssueTime },
		func(sc *Scenario) { sc.IssueTime = -5 }, // validated, then panicked scheduling the ad
		func(sc *Scenario) { sc.R = 0 },
		func(sc *Scenario) { sc.D = -1 },
		func(sc *Scenario) { sc.Mobility = "teleport" },
	}
	for i, mutate := range mutations {
		sc := DefaultScenario()
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDISDefaultsToQuarterR(t *testing.T) {
	sc := DefaultScenario()
	if got := sc.dis(); got != sc.R/4 {
		t.Errorf("dis() = %v, want %v", got, sc.R/4)
	}
	sc.DIS = 80
	if got := sc.dis(); got != 80 {
		t.Errorf("explicit dis() = %v", got)
	}
}

func TestIssueAtDefaultsToCenter(t *testing.T) {
	sc := DefaultScenario()
	if got := sc.issueAt(); got != (geo.Point{X: 750, Y: 750}) {
		t.Errorf("issueAt = %v", got)
	}
	sc.IssueAt = geo.Point{X: 10, Y: 20}
	if got := sc.issueAt(); got != (geo.Point{X: 10, Y: 20}) {
		t.Errorf("explicit issueAt = %v", got)
	}
}

func TestRunProducesSaneMetrics(t *testing.T) {
	sc := quickScenario()
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate < 0 || res.DeliveryRate > 100 {
		t.Errorf("delivery rate %v outside [0,100]", res.DeliveryRate)
	}
	if res.Report.PassedThrough == 0 {
		t.Error("nobody passed through a 500 m area in the field center")
	}
	if res.Messages == 0 {
		t.Error("no messages")
	}
	if res.DeliveryTime < 0 {
		t.Errorf("negative delivery time %v", res.DeliveryTime)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	sc := quickScenario()
	r1, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.DeliveryRate != r2.DeliveryRate || r1.Messages != r2.Messages || r1.DeliveryTime != r2.DeliveryTime {
		t.Errorf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a := quickScenario()
	b := quickScenario()
	b.Seed = a.Seed + 1
	ra, _ := a.Run()
	rb, _ := b.Run()
	if ra.Messages == rb.Messages && ra.DeliveryTime == rb.DeliveryTime {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRunAllMobilityKinds(t *testing.T) {
	for _, m := range []MobilityKind{RandomWaypoint, RandomWalk, Manhattan} {
		sc := quickScenario()
		sc.Mobility = m
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Report.PassedThrough == 0 {
			t.Errorf("%v: nobody passed through", m)
		}
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range core.Protocols() {
		sc := quickScenario()
		sc.Protocol = p
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.DeliveryRate < 50 {
			t.Errorf("%v: delivery rate %v suspiciously low at 120 peers", p, res.DeliveryRate)
		}
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	sc := quickScenario()
	sc.NumPeers = 80
	agg, err := RunReplicated(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Reps != 3 || agg.DeliveryRate.N != 3 {
		t.Errorf("aggregate %+v", agg)
	}
	if agg.Messages.Mean <= 0 {
		t.Error("no messages aggregated")
	}
	if _, err := RunReplicated(sc, 0); err == nil {
		t.Error("reps=0 accepted")
	}
}

func TestRunInvalidScenario(t *testing.T) {
	sc := DefaultScenario()
	sc.NumPeers = 0
	if _, err := sc.Run(); err == nil {
		t.Error("invalid scenario ran")
	}
}

func TestRadioImpairmentsApply(t *testing.T) {
	sc := quickScenario()
	sc.LossRate = 0.2
	sc.Collisions = true
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The run completes with impairments on; delivery may dip but the
	// system must still mostly work at this density.
	if res.DeliveryRate < 30 {
		t.Errorf("delivery rate %v collapsed under mild impairments", res.DeliveryRate)
	}
}

func TestRenderFigure(t *testing.T) {
	f := Figure{
		ID: "t", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{1, 3}, Y: []float64{30, 40}},
		},
	}
	out := f.Render()
	for _, want := range []string{"t — test", "a", "b", "10.00", "40.00", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + separator + 3 x-values (+2 title lines).
	if len(lines) != 7 {
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(5) != "5" {
		t.Errorf("trimFloat(5) = %q", trimFloat(5))
	}
	if trimFloat(0.5) != "0.50" {
		t.Errorf("trimFloat(0.5) = %q", trimFloat(0.5))
	}
}

func TestScenarioFromNS2Trace(t *testing.T) {
	// Export the scenario's own generated trajectories, then reload them via
	// TraceFile: metrics must match the generated run exactly.
	sc := quickScenario()
	sc.NumPeers = 60
	direct, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	models, _, err := sc.buildModels(rng.New(sc.Seed).Split("models"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "move.ns2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mobility.ExportNS2(f, models); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	traced := sc
	traced.TraceFile = path
	res, err := traced.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Same trajectories (to export rounding) and same protocol seeds: the
	// delivery accounting must agree.
	if res.Report.PassedThrough != direct.Report.PassedThrough {
		t.Errorf("passed-through differs: %d vs %d", res.Report.PassedThrough, direct.Report.PassedThrough)
	}
	if diff := res.DeliveryRate - direct.DeliveryRate; diff > 3 || diff < -3 {
		t.Errorf("delivery rate diverged: %v vs %v", res.DeliveryRate, direct.DeliveryRate)
	}
}

// TestNoPeerOutrunsTheChannelSpeedBound checks the number the radio's
// staleness slack and the collector's candidate bound both lean on: whatever
// moves the peers, no sampled second of any trajectory covers more than
// Channel.MaxSpeed meters. RPGM members add their wander to the group's
// speed, pedestrians can be configured faster than the vehicles, and a trace
// file's speeds are in the script, not in the scenario.
func TestNoPeerOutrunsTheChannelSpeedBound(t *testing.T) {
	cases := map[string]func(*Scenario){
		"fast pedestrians": func(sc *Scenario) { sc.PedestrianFraction, sc.PedestrianSpeed = 0.5, 20 },
		"trace file": func(sc *Scenario) {
			models, _, err := sc.buildModels(rng.New(sc.Seed).Split("models"), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sc.TraceFile = filepath.Join(t.TempDir(), "move.ns2")
			f, err := os.Create(sc.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := mobility.ExportNS2(f, models); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			sc.SpeedMean, sc.SpeedDelta = 1, 0 // ignored, and wrong, once TraceFile is set
		},
	}
	for _, kind := range MobilityKinds() {
		kind := kind
		cases[kind.String()] = func(sc *Scenario) { sc.Mobility = kind }
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			sc := quickScenario()
			mutate(&sc)
			sm, err := sc.Build()
			if err != nil {
				t.Fatal(err)
			}
			ch := sm.Net.Channel()
			fastest := 0.0
			for i := 0; i < ch.N(); i++ {
				prev := ch.PositionAt(i, 0)
				for at := 1.0; at <= sc.SimTime; at++ {
					pos := ch.PositionAt(i, at)
					fastest = math.Max(fastest, pos.Dist(prev))
					prev = pos
				}
			}
			if bound := ch.MaxSpeed(); fastest > bound*(1+1e-9) || fastest < bound/2 {
				t.Errorf("fastest sampled second covers %.3f m, channel bound is %.3f m/s", fastest, bound)
			}
		})
	}
}

func TestScenarioTraceFileErrors(t *testing.T) {
	sc := quickScenario()
	sc.TraceFile = "/nonexistent/move.ns2"
	if _, err := sc.Run(); err == nil {
		t.Error("missing trace file accepted")
	}
	// A trace with too few nodes.
	path := filepath.Join(t.TempDir(), "small.ns2")
	if err := os.WriteFile(path, []byte("$node_(0) set X_ 1\n$node_(0) set Y_ 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc.TraceFile = path
	if _, err := sc.Run(); err == nil {
		t.Error("undersized trace accepted")
	}
}

func TestPedestrianFleet(t *testing.T) {
	sc := quickScenario()
	sc.PedestrianFraction = 0.5
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.PassedThrough == 0 || res.Messages == 0 {
		t.Fatalf("degenerate mixed-fleet run: %+v", res)
	}
	// The mixed fleet must differ from the uniform one (short handset ranges
	// and walking speeds change connectivity).
	uniform := quickScenario()
	ures, err := uniform.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == ures.Messages && res.DeliveryRate == ures.DeliveryRate {
		t.Error("pedestrian fraction had no effect at all")
	}
}

func TestPedestrianValidation(t *testing.T) {
	sc := quickScenario()
	sc.PedestrianFraction = 1.5
	if err := sc.Validate(); err == nil {
		t.Error("fraction > 1 accepted")
	}
	sc.PedestrianFraction = -0.1
	if err := sc.Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestPedestrianDefaults(t *testing.T) {
	sc := quickScenario()
	if sc.pedestrianSpeed() != 1.4 || sc.pedestrianRange() != 50 {
		t.Errorf("defaults %v/%v", sc.pedestrianSpeed(), sc.pedestrianRange())
	}
	sc.PedestrianSpeed, sc.PedestrianRange = 2, 80
	if sc.pedestrianSpeed() != 2 || sc.pedestrianRange() != 80 {
		t.Error("overrides ignored")
	}
}

func TestRPGMScenarioRuns(t *testing.T) {
	sc := quickScenario()
	sc.Mobility = RPGM
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.PassedThrough == 0 || res.Messages == 0 {
		t.Fatalf("degenerate RPGM run: %+v", res)
	}
}

func TestIssuerOfflineGossipSurvivesFloodingDies(t *testing.T) {
	// The paper's robustness claim: the issuer broadcasts once and goes
	// offline. Gossip keeps the ad alive; Restricted Flooding depends on the
	// issuer and collapses.
	// A small area (R = 300 m) and a long life (150 s) make late entrants —
	// the peers only a live dissemination process can serve — the bulk of
	// the denominator.
	run := func(p core.Protocol, offlineAfter float64) Result {
		sc := quickScenario()
		sc.NumPeers = 200
		sc.R = 300
		sc.D = 150
		sc.Protocol = p
		sc.IssuerOfflineAfter = offlineAfter
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return res
	}
	gossip := run(core.Gossip, 10)
	floodDead := run(core.Flooding, 10)
	floodLive := run(core.Flooding, 0)
	if gossip.DeliveryRate < 90 {
		t.Errorf("gossip delivery %v with offline issuer, want > 90%%", gossip.DeliveryRate)
	}
	if floodDead.DeliveryRate > gossip.DeliveryRate-15 {
		t.Errorf("flooding delivery %v should fall well below gossip %v without its issuer",
			floodDead.DeliveryRate, gossip.DeliveryRate)
	}
	if floodDead.DeliveryRate > floodLive.DeliveryRate-15 {
		t.Errorf("issuer loss barely hurt flooding: %v vs %v with issuer alive",
			floodDead.DeliveryRate, floodLive.DeliveryRate)
	}
}

func TestChurnDegradesGracefully(t *testing.T) {
	sc := quickScenario()
	sc.NumPeers = 200
	stable, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	churny := sc
	churny.ChurnOnMean = 60
	churny.ChurnOffMean = 30 // peers offline a third of the time
	res, err := churny.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate < 50 {
		t.Errorf("churn collapsed delivery to %v", res.DeliveryRate)
	}
	if res.Messages >= stable.Messages {
		t.Errorf("churn did not reduce traffic: %v vs %v", res.Messages, stable.Messages)
	}
}

func TestChurnValidation(t *testing.T) {
	sc := quickScenario()
	sc.ChurnOnMean = 60 // missing off mean
	if err := sc.Validate(); err == nil {
		t.Error("one-sided churn accepted")
	}
	sc.ChurnOnMean, sc.ChurnOffMean = 0, 0
	sc.IssuerOfflineAfter = -1
	if err := sc.Validate(); err == nil {
		t.Error("negative issuer-offline accepted")
	}
}

func TestLoadGiniFloodingVsGossip(t *testing.T) {
	// Flooding concentrates transmissions on the issuer (it fires every
	// round) while gossip spreads the work; the Gini coefficient of per-peer
	// transmission counts must reflect that ordering.
	run := func(p core.Protocol) float64 {
		sc := quickScenario()
		sc.Protocol = p
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.LoadGini < 0 || res.LoadGini >= 1 {
			t.Fatalf("%v: Gini %v out of range", p, res.LoadGini)
		}
		return res.LoadGini
	}
	flood := run(core.Flooding)
	gossip := run(core.Gossip)
	if gossip >= flood {
		t.Errorf("gossip load Gini %v not below flooding %v", gossip, flood)
	}
}

func TestSimTraceRecordsRun(t *testing.T) {
	sc := quickScenario()
	sc.NumPeers = 60
	sm, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := sm.Trace(&buf)
	h := sm.ScheduleAd(sc.IssueTime, sc.issueAt(), core.AdSpec{R: sc.R, D: sc.D, Category: "petrol"})
	sm.Engine.Run(sc.SimTime)
	if h.Err != nil {
		t.Fatal(h.Err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := trace.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	// The trace's broadcast count must agree with the metrics collector's
	// (both observe the same event stream via MultiObserver).
	if uint64(sum.ByKind[trace.KindBroadcast]) != sm.Metrics.TotalMessages() {
		t.Errorf("trace broadcasts %d ≠ collector %d",
			sum.ByKind[trace.KindBroadcast], sm.Metrics.TotalMessages())
	}
}

func TestScenarioInvariantsProperty(t *testing.T) {
	// System-level property fuzz: tiny random scenarios across the whole
	// config space must satisfy the structural invariants — no panics,
	// bounded rates, message accounting consistent, caches within bounds.
	if testing.Short() {
		t.Skip("simulation property sweep")
	}
	f := func(seed uint64, protoRaw, mobRaw, nRaw, speedRaw, alphaRaw, kRaw uint8) bool {
		protos := core.AllProtocols()
		mobs := []MobilityKind{RandomWaypoint, RandomWalk, Manhattan, RPGM}
		sc := DefaultScenario()
		sc.Seed = seed
		sc.Protocol = protos[int(protoRaw)%len(protos)]
		sc.Mobility = mobs[int(mobRaw)%len(mobs)]
		sc.NumPeers = 20 + int(nRaw)%60
		sc.SpeedMean = 2 + float64(speedRaw%25)
		sc.SpeedDelta = sc.SpeedMean / 3
		sc.Alpha = 0.1 + float64(alphaRaw%80)/100
		sc.CacheK = 1 + int(kRaw)%12
		sc.FieldW, sc.FieldH = 800, 800
		sc.R = 300
		sc.D = 80
		sc.SimTime = 200
		if sc.Protocol.String() == "Optimized Gossiping-1" || sc.Protocol.String() == "Optimized Gossiping" {
			sc.DIS = 75
		}
		sm, err := sc.Build()
		if err != nil {
			t.Logf("build failed for %+v: %v", sc, err)
			return false
		}
		h := sm.ScheduleAd(sc.IssueTime, sc.issueAt(), core.AdSpec{R: sc.R, D: sc.D, Category: "petrol"})
		sm.Engine.Run(sc.SimTime)
		if h.Err != nil || h.Ad == nil {
			return false
		}
		rep, err := sm.Metrics.Report(h.Ad.ID)
		if err != nil {
			return false
		}
		if rep.DeliveryRate < 0 || rep.DeliveryRate > 100 {
			return false
		}
		if rep.Delivered > rep.PassedThrough {
			return false
		}
		// Per-ad messages never exceed the network-wide count.
		if rep.Messages > sm.Metrics.TotalMessages() {
			return false
		}
		// Caches stay within capacity everywhere, always.
		for i := 0; i < sm.Net.NumPeers(); i++ {
			if sm.Net.Peer(i).Cache().Len() > sc.CacheK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
