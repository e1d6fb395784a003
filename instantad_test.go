package instantad_test

import (
	"strings"
	"testing"

	"instantad"
)

func quickScenario() instantad.Scenario {
	sc := instantad.DefaultScenario()
	sc.NumPeers = 100
	sc.D = 120
	sc.SimTime = 300
	return sc
}

func TestPublicQuickstartFlow(t *testing.T) {
	sc := quickScenario()
	sc.Protocol = instantad.GossipOpt
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRate <= 0 || res.Messages <= 0 {
		t.Errorf("degenerate result %+v", res)
	}
}

func TestPublicBuildAndMultiAd(t *testing.T) {
	sc := quickScenario()
	sm, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	instantad.AssignInterests(sm, instantad.InterestConfig{}, instantad.NewRand(5))
	h1 := sm.ScheduleAd(30, instantad.Point{X: 400, Y: 400}, instantad.AdSpec{
		R: 400, D: 120, Category: "petrol", Text: instantad.AdText("petrol", 0),
	})
	h2 := sm.ScheduleAd(40, instantad.Point{X: 1100, Y: 1100}, instantad.AdSpec{
		R: 400, D: 120, Category: "grocery", Text: instantad.AdText("grocery", 1),
	})
	sm.Engine.Run(sc.SimTime)
	for i, h := range []*instantad.AdHandle{h1, h2} {
		if h.Err != nil {
			t.Fatalf("ad %d: %v", i, h.Err)
		}
		rep, err := sm.Metrics.Report(h.Ad.ID)
		if err != nil {
			t.Fatalf("ad %d report: %v", i, err)
		}
		if rep.PassedThrough == 0 {
			t.Errorf("ad %d: nobody passed through", i)
		}
	}
}

func TestPublicProtocolsAndParsing(t *testing.T) {
	ps := instantad.Protocols()
	if len(ps) != 5 {
		t.Fatalf("protocols = %v", ps)
	}
	p, err := instantad.ParseProtocol("Optimized Gossiping")
	if err != nil || p != instantad.GossipOpt {
		t.Errorf("parse: %v %v", p, err)
	}
}

func TestPublicSketch(t *testing.T) {
	sk := instantad.NewSketch(8, 32, 7)
	for i := 0; i < 500; i++ {
		sk.Add(uint64(i))
	}
	est := sk.Estimate()
	if est < 150 || est > 1500 {
		t.Errorf("estimate %v far from 500", est)
	}
}

func TestPublicCategories(t *testing.T) {
	cats := instantad.Categories()
	if len(cats) == 0 {
		t.Fatal("no categories")
	}
	cats[0] = "mutated"
	if instantad.Categories()[0] == "mutated" {
		t.Error("Categories exposes shared backing array")
	}
	if instantad.AdText("petrol", 1) == "" {
		t.Error("empty ad text")
	}
}

func TestPublicAnalyticFigures(t *testing.T) {
	for _, f := range []instantad.Figure{instantad.Fig2(), instantad.Fig3(), instantad.Fig5(), instantad.FigFMAccuracy()} {
		out := f.Render()
		if !strings.Contains(out, f.ID) {
			t.Errorf("figure %s renders without its ID", f.ID)
		}
	}
}

func TestPublicRunReplicated(t *testing.T) {
	sc := quickScenario()
	sc.NumPeers = 60
	agg, err := instantad.RunReplicated(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Reps != 2 {
		t.Errorf("reps = %d", agg.Reps)
	}
}

func TestPublicFacadeCoverage(t *testing.T) {
	if len(instantad.AllProtocols()) != 7 {
		t.Errorf("AllProtocols = %v", instantad.AllProtocols())
	}
	sum, err := instantad.RunMultiAd(quickScenario(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.NumAds != 2 {
		t.Errorf("NumAds = %d", sum.NumAds)
	}
}

func TestPublicCampaign(t *testing.T) {
	sc := quickScenario()
	sc.SimTime = 400
	base := instantad.CampaignConfig{
		ArrivalRate: 1.0 / 20, Start: 30, End: 200,
		R: 350, D: 100, CategorySkew: 0.8,
	}
	rep, err := instantad.RunCampaign(sc, base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdsIssued == 0 || rep.MeanDelivery <= 0 {
		t.Errorf("degenerate campaign: %+v", rep)
	}
	reps, err := instantad.CampaignSweep(sc, base, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Errorf("sweep reports = %d", len(reps))
	}
}

func TestPublicParserRoundTrips(t *testing.T) {
	for _, k := range []instantad.MobilityKind{
		instantad.RandomWaypoint, instantad.RandomWalk, instantad.Manhattan, instantad.RPGM,
	} {
		got, err := instantad.ParseMobility(k.String())
		if err != nil || got != k {
			t.Errorf("ParseMobility(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := instantad.ParseMobility("levy-flight"); err == nil {
		t.Error("ParseMobility accepted an unknown model")
	}
	for _, e := range []instantad.EvictionPolicy{
		instantad.EvictLowestProb, instantad.EvictOldestFirst, instantad.EvictRandomEntry,
	} {
		got, err := instantad.ParseEviction(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEviction(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := instantad.ParseEviction("lru"); err == nil {
		t.Error("ParseEviction accepted an unknown policy")
	}
}

// countingObserver tallies broadcasts and postponements through the public
// observer seam.
type countingObserver struct {
	instantad.BaseObserver
	broadcasts int
	postpones  int
}

func (c *countingObserver) OnBroadcast(peer int, id instantad.AdID, bytes int, t float64) {
	c.broadcasts++
}

func (c *countingObserver) OnPostpone(peer int, id instantad.AdID, delay float64, t float64) {
	c.postpones++
}

func TestPublicObservabilitySeam(t *testing.T) {
	sc := quickScenario()
	sc.Protocol = instantad.GossipOpt
	sim, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rec := sim.Trace(&buf)
	a, b := &countingObserver{}, &countingObserver{}
	sim.Observe(instantad.MultiObserver(a, nil), b)
	h := sim.ScheduleAd(sc.IssueTime, instantad.Point{X: sc.FieldW / 2, Y: sc.FieldH / 2},
		instantad.AdSpec{R: sc.R, D: sc.D, Category: sc.Category, Text: "seam test"})
	sim.Engine.Run(sc.SimTime)
	if h.Err != nil || h.Ad == nil {
		t.Fatalf("issue failed: %v", h.Err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.broadcasts == 0 || a.broadcasts != b.broadcasts {
		t.Errorf("observer fan-out broke: a=%d b=%d", a.broadcasts, b.broadcasts)
	}
	if a.postpones == 0 {
		t.Error("PostponeObserver got no OnPostpone under GossipOpt")
	}

	snap := sim.Registry.Snapshot()
	if got := snap.Counters["sim_messages_total"]; got != uint64(a.broadcasts) {
		t.Errorf("sim_messages_total = %d, observers saw %d", got, a.broadcasts)
	}
	if snap.Histograms["sim_postpone_delay_seconds"].Count != uint64(a.postpones) {
		t.Errorf("postpone histogram count %d, observers saw %d",
			snap.Histograms["sim_postpone_delay_seconds"].Count, a.postpones)
	}

	events, err := instantad.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := instantad.SummarizeTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByKind["broadcast"] != a.broadcasts {
		t.Errorf("trace saw %d broadcasts, observers %d", sum.ByKind["broadcast"], a.broadcasts)
	}
	if _, err := instantad.AnalyzeTrace(events); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRegistry(t *testing.T) {
	reg := instantad.NewRegistry()
	reg.Counter("demo_total", "a counter").Add(2)
	snap := reg.Snapshot()
	if snap.Counters["demo_total"] != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
}
