package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/obs"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

func coreConfig() core.Config {
	return core.Config{
		Protocol:  core.Gossip,
		Params:    core.ProbParams{Alpha: 0.5, Beta: 0.5},
		RoundTime: 5,
		CacheK:    10,
	}
}

// buildNet assembles sim+network+collector over the given models, none of
// which may outrun the default channel's 15 m/s speed bound.
func buildNet(t *testing.T, models []mobility.Model, cfg core.Config) (*sim.Simulator, *core.Network, *Collector) {
	t.Helper()
	return buildNetOn(t, radio.DefaultConfig(), models, cfg)
}

// buildNetOn is buildNet on a given channel configuration.
func buildNetOn(t *testing.T, rcfg radio.Config, models []mobility.Model, cfg core.Config) (*sim.Simulator, *core.Network, *Collector) {
	t.Helper()
	s := sim.New()
	n, err := core.New(s, rcfg, models, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(s, n.Channel(), cfg.Params, 1)
	n.SetObserver(col)
	return s, n, col
}

func TestReportUnknownAd(t *testing.T) {
	models := []mobility.Model{mobility.NewStatic(geo.Point{})}
	_, _, col := buildNet(t, models, coreConfig())
	if _, err := col.Report(ads.ID{Issuer: 9, Seq: 9}); err == nil {
		t.Error("unknown ad accepted")
	}
}

func TestPeersInsideAtIssueCount(t *testing.T) {
	// Three static peers: two inside the 500 m area, one far outside.
	models := []mobility.Model{
		mobility.NewStatic(geo.Point{X: 0, Y: 0}),
		mobility.NewStatic(geo.Point{X: 200, Y: 0}),
		mobility.NewStatic(geo.Point{X: 5000, Y: 0}),
	}
	s, n, col := buildNet(t, models, coreConfig())
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(1, func() { issued, _ = n.IssueAd(0, core.AdSpec{R: 500, D: 120}) })
	s.Run(200)
	rep, err := col.Report(issued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PassedThrough != 2 {
		t.Errorf("PassedThrough = %d, want 2", rep.PassedThrough)
	}
	if rep.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", rep.Delivered)
	}
	if rep.DeliveryRate != 100 {
		t.Errorf("DeliveryRate = %v", rep.DeliveryRate)
	}
	if rep.Messages == 0 || rep.Bytes == 0 {
		t.Error("no traffic counted")
	}
}

func TestMovingPeerEntryDetected(t *testing.T) {
	// A peer starts outside the area and walks through it; entry time must
	// match the analytic boundary crossing.
	issuer := mobility.NewStatic(geo.Point{X: 0, Y: 0})
	// Walker starts at x=1000 moving toward origin at 10 m/s: crosses the
	// (fresh) boundary R_t ≈ 500 around t ≈ 50+issue.
	walker := linear{p: geo.Point{X: 1000, Y: 0}, v: geo.Vec{X: -10, Y: 0}}
	models := []mobility.Model{issuer, walker}
	s, n, col := buildNet(t, models, coreConfig())
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(0, func() { issued, _ = n.IssueAd(0, core.AdSpec{R: 500, D: 400}) })
	s.Run(300)
	rep, err := col.Report(issued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PassedThrough != 2 {
		t.Fatalf("PassedThrough = %d, want 2 (issuer + walker)", rep.PassedThrough)
	}
	if rep.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", rep.Delivered)
	}
	// Walker's delivery time is measured from its boundary crossing (~50 s),
	// not from issue; it should be no more than a few gossip rounds.
	if rep.DeliveryTimes.Max > 60 {
		t.Errorf("delivery time %v too large", rep.DeliveryTimes.Max)
	}
}

type linear struct {
	p geo.Point
	v geo.Vec
}

func (m linear) Position(t float64) geo.Point { return m.p.Add(m.v.Scale(t)) }
func (m linear) Velocity(t float64) geo.Vec   { return m.v }

func TestFastCrosserNotMissed(t *testing.T) {
	// A peer crossing the area on a chord between two samples must still be
	// detected (segment–circle intersection, not point sampling), and at the
	// time it crossed, not at the sample after.
	issuer := mobility.NewStatic(geo.Point{X: 0, Y: 0})
	// Crosses the whole 1000 m diameter in 2 s (500 m/s — adversarial), and
	// the channel is told so: entry detection is exact given MaxSpeed.
	dash := linear{p: geo.Point{X: -2000, Y: 1}, v: geo.Vec{X: 500, Y: 0}}
	models := []mobility.Model{issuer, dash}
	cfg := coreConfig()
	rcfg := radio.DefaultConfig()
	rcfg.MaxSpeed = 500
	s, n, col := buildNetOn(t, rcfg, models, cfg)
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(0, func() { issued, _ = n.IssueAd(0, core.AdSpec{R: 500, D: 60}) })
	// The dash is through by t = 5; read its entry while the ad is live and
	// the ledger still holds it.
	s.Run(10)
	// At t = 3 the dash is at x = −500, a whisker outside R_3; the chord
	// sampled over (3, 4] meets the circle of radius R_4 at x = −√(R_4² − 1).
	r4 := core.RadiusAt(cfg.Params, 500, 60, 4)
	want := 3 + (500-math.Sqrt(r4*r4-1))/500
	tr := col.tracked[issued.ID]
	if !has(tr.member, 1) || has(tr.pending, 1) {
		t.Fatalf("dash is a member %v, has entered %v; want both", has(tr.member, 1), !has(tr.pending, 1))
	}
	if got := tr.enterTime[tr.slot(1)]; math.Abs(got-want) > 1e-9 {
		t.Errorf("dash entered at %v, want %v", got, want)
	}
	s.Run(100)
	rep, _ := col.Report(issued.ID)
	if rep.PassedThrough != 2 {
		t.Fatalf("fast crosser missed: PassedThrough = %d, want 2", rep.PassedThrough)
	}
	// It dashed through in ~2 s; it may or may not have been delivered, but
	// it must be in the denominator, so the rate reflects the miss.
	if rep.DeliveryRate == 100 && rep.Delivered == 2 {
		// Fine too — it passed within radio range of the issuer. Just check
		// accounting consistency.
		if rep.DeliveryTimes.N != 2 {
			t.Errorf("times N = %d", rep.DeliveryTimes.N)
		}
	}
}

func TestNeverEnteredPeerExcluded(t *testing.T) {
	issuer := mobility.NewStatic(geo.Point{X: 0, Y: 0})
	far := mobility.NewStatic(geo.Point{X: 9000, Y: 9000})
	s, n, col := buildNet(t, []mobility.Model{issuer, far}, coreConfig())
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(0, func() { issued, _ = n.IssueAd(0, core.AdSpec{R: 500, D: 60}) })
	s.Run(120)
	rep, _ := col.Report(issued.ID)
	if rep.PassedThrough != 1 {
		t.Errorf("PassedThrough = %d, want 1 (issuer only)", rep.PassedThrough)
	}
}

func TestTrackingStopsAtLifeCycleEnd(t *testing.T) {
	// Entries after the ad's life cycle (R_t = 0) must not count.
	issuer := mobility.NewStatic(geo.Point{X: 0, Y: 0})
	// Arrives at the area long after expiry (D = 30 s; arrival at ~t=160).
	late := linear{p: geo.Point{X: 2000, Y: 0}, v: geo.Vec{X: -10, Y: 0}}
	s, n, col := buildNet(t, []mobility.Model{issuer, late}, coreConfig())
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(0, func() { issued, _ = n.IssueAd(0, core.AdSpec{R: 500, D: 30}) })
	s.Run(400)
	rep, _ := col.Report(issued.ID)
	if rep.PassedThrough != 1 {
		t.Errorf("PassedThrough = %d, want 1 (late peer excluded)", rep.PassedThrough)
	}
	// The ended ad's report is folded and its ledger released; a late
	// receipt or broadcast cannot move the report.
	tr := col.tracked[issued.ID]
	if tr.report == nil || tr.member != nil || tr.pending != nil || tr.base != nil ||
		tr.enterTime != nil || tr.received != nil || tr.receiveTime != nil || tr.covDist != nil {
		t.Fatalf("ended ad holds report %v, member %v, pending %v, base %v, columns %v/%v/%v, covDist %v; want a report and no ledger",
			tr.report, tr.member, tr.pending, tr.base, tr.enterTime, tr.received, tr.receiveTime, tr.covDist)
	}
	col.OnFirstReceive(1, issued, 401)
	col.OnBroadcast(1, issued.ID, 100, 401)
	if again, _ := col.Report(issued.ID); again != rep {
		t.Errorf("report after a late receipt and broadcast = %v, want %v", again, rep)
	}
}

// TestTrackedAdsGaugeCountsLiveAds: sim_tracked_ads counts the ads still
// under measurement, not every ad ever issued.
func TestTrackedAdsGaugeCountsLiveAds(t *testing.T) {
	models := []mobility.Model{
		mobility.NewStatic(geo.Point{X: 0, Y: 0}),
		mobility.NewStatic(geo.Point{X: 100, Y: 0}),
	}
	s, n, col := buildNet(t, models, coreConfig())
	reg := obs.NewRegistry()
	col.InstrumentWith(reg)
	n.Start()
	s.Schedule(0, func() { _, _ = n.IssueAd(0, core.AdSpec{R: 500, D: 30}) })
	s.Schedule(20, func() { _, _ = n.IssueAd(1, core.AdSpec{R: 500, D: 60}) })
	for _, c := range []struct{ at, live float64 }{{10, 1}, {25, 2}, {40, 1}, {100, 0}} {
		s.Run(c.at)
		if got := reg.Snapshot().Gauges["sim_tracked_ads"]; got != c.live {
			t.Errorf("t = %v: sim_tracked_ads = %v, want %v", c.at, got, c.live)
		}
	}
	if got := len(col.TrackedIDs()); got != 2 {
		t.Errorf("TrackedIDs holds %d ads after both ended, want 2", got)
	}
}

func TestDeliveryTimeZeroWhenReceivedBeforeEntry(t *testing.T) {
	// A peer that hears the ad while still outside the area (radio range
	// reaches past the boundary when R < range) has delivery time 0.
	issuer := mobility.NewStatic(geo.Point{X: 0, Y: 0})
	// Sits 150 m outside a 100 m area but within 250 m radio range, then
	// walks in.
	walker := linear{p: geo.Point{X: 200, Y: 0}, v: geo.Vec{X: -5, Y: 0}}
	cfg := coreConfig()
	s, n, col := buildNet(t, []mobility.Model{issuer, walker}, cfg)
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(0, func() { issued, _ = n.IssueAd(0, core.AdSpec{R: 100, D: 120}) })
	s.Run(120)
	rep, _ := col.Report(issued.ID)
	if rep.PassedThrough != 2 || rep.Delivered != 2 {
		t.Fatalf("passed=%d delivered=%d, want 2/2", rep.PassedThrough, rep.Delivered)
	}
	// The walker got the ad before entering: its time contribution is 0.
	if rep.DeliveryTimes.Min != 0 {
		t.Errorf("min delivery time = %v, want 0", rep.DeliveryTimes.Min)
	}
}

func TestCountersAndAccessors(t *testing.T) {
	models := []mobility.Model{
		mobility.NewStatic(geo.Point{X: 0, Y: 0}),
		mobility.NewStatic(geo.Point{X: 100, Y: 0}),
		mobility.NewStatic(geo.Point{X: 200, Y: 0}),
	}
	s, n, col := buildNet(t, models, coreConfig())
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(1, func() { issued, _ = n.IssueAd(0, core.AdSpec{R: 500, D: 100}) })
	s.Run(200)
	if col.TotalMessages() == 0 || col.TotalBytes() == 0 {
		t.Error("no totals accumulated")
	}
	if col.Duplicates() == 0 {
		t.Error("dense clump should produce duplicates")
	}
	if col.Expirations() == 0 {
		t.Error("ad should have expired from caches")
	}
	ids := col.TrackedIDs()
	if len(ids) != 1 || ids[0] != issued.ID {
		t.Errorf("TrackedIDs = %v", ids)
	}
	rep, _ := col.Report(issued.ID)
	if rep.String() == "" {
		t.Error("empty report string")
	}
	if math.IsNaN(rep.DeliveryRate) {
		t.Error("NaN delivery rate")
	}
}

func TestPerAdIsolation(t *testing.T) {
	// Two ads issued at different spots: messages must be attributed to the
	// right ad.
	models := []mobility.Model{
		mobility.NewStatic(geo.Point{X: 0, Y: 0}),
		mobility.NewStatic(geo.Point{X: 2000, Y: 0}),
	}
	s, n, col := buildNet(t, models, coreConfig())
	n.Start()
	var a, b *ads.Advertisement
	s.Schedule(1, func() { a, _ = n.IssueAd(0, core.AdSpec{R: 300, D: 100}) })
	s.Schedule(1, func() { b, _ = n.IssueAd(1, core.AdSpec{R: 300, D: 100}) })
	s.Run(200)
	ra, _ := col.Report(a.ID)
	rb, _ := col.Report(b.ID)
	if ra.Messages == 0 || rb.Messages == 0 {
		t.Fatalf("messages: a=%d b=%d", ra.Messages, rb.Messages)
	}
	if ra.Messages+rb.Messages != col.TotalMessages() {
		t.Errorf("per-ad messages %d+%d ≠ total %d", ra.Messages, rb.Messages, col.TotalMessages())
	}
	if ra.PassedThrough != 1 || rb.PassedThrough != 1 {
		t.Errorf("passed: a=%d b=%d, want 1/1 (isolated areas)", ra.PassedThrough, rb.PassedThrough)
	}
}

// TestSampleEveryDefault: a cadence that is not positive and finite falls
// back to 1 s, and the collector then ticks once a second.
func TestSampleEveryDefault(t *testing.T) {
	for _, every := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(every), func(t *testing.T) {
			models := []mobility.Model{mobility.NewStatic(geo.Point{})}
			s := sim.New()
			n, err := core.New(s, radio.DefaultConfig(), models, coreConfig(), rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			col := NewCollector(s, n.Channel(), coreConfig().Params, every)
			if col.sampleEvery != 1 {
				t.Errorf("sampleEvery = %v, want 1", col.sampleEvery)
			}
			s.Run(3.5)
			if col.prevT != 3 {
				t.Errorf("last tick at %v, want 3", col.prevT)
			}
		})
	}
}

// TestLedgerRanks pins the rank layout at the word boundaries of the member
// set: peers 0, 63, 64, 65 and N−1 are members (those below N), the rest are
// parked far away, and N runs over one word, a word and a bit, and a partial
// third word. Every member's slot must be its rank, the even-ranked ones
// (inside the area) enter at issue, and receipts land in the right slots and
// nowhere else. An ad nobody can reach has an empty ledger that drops every
// receipt.
func TestLedgerRanks(t *testing.T) {
	origin := geo.Point{X: 5000, Y: 5000}
	for _, n := range []int{1, 64, 65, 130} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var members []int
			for _, i := range []int{0, 63, 64, 65, n - 1} {
				if i < n && !slices.Contains(members, i) {
					members = append(members, i)
				}
			}
			models := make([]mobility.Model, n)
			for i := range models {
				models[i] = mobility.NewStatic(geo.Point{X: float64(i)})
			}
			for k, i := range members {
				// Inside the 300 m area on even ranks, 400 m out on odd ones.
				models[i] = mobility.NewStatic(origin.Add(geo.Vec{X: 100 + 300*float64(k%2), Y: float64(k)}))
			}
			s := sim.New()
			ch, err := radio.New(s, radio.DefaultConfig(), models, func(int, radio.Frame) {}, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			col := NewCollector(s, ch, coreConfig().Params, 1)
			ad := &ads.Advertisement{ID: ads.ID{Seq: 1}, Origin: origin, R: 300, D: 60}
			col.OnIssue(0, ad, 0)
			for i := 0; i < n; i++ {
				col.OnFirstReceive(i, ad, 1+float64(i))
			}
			tr := col.tracked[ad.ID]
			var walked []int
			tr.each(func(k, i int) {
				if k != len(walked) || tr.slot(i) != k {
					t.Errorf("member %d: walked as slot %d, slot() %d, want %d", i, k, tr.slot(i), len(walked))
				}
				walked = append(walked, i)
				if entered := !has(tr.pending, i); entered != (k%2 == 0) {
					t.Errorf("member %d (rank %d): entered %v at issue", i, k, entered)
				}
				if !tr.received[k] || tr.receiveTime[k] != 1+float64(i) {
					t.Errorf("member %d: received %v at %v, want at %v", i, tr.received[k], tr.receiveTime[k], 1+float64(i))
				}
			})
			if !slices.Equal(walked, members) || len(tr.received) != len(members) {
				t.Fatalf("members %v in %d slots, want %v", walked, len(tr.received), members)
			}
			if rep, _ := col.Report(ad.ID); rep.PassedThrough != (len(members)+1)/2 || rep.Delivered != rep.PassedThrough {
				t.Errorf("report %d/%d, want every one of the %d entrants delivered", rep.Delivered, rep.PassedThrough, (len(members)+1)/2)
			}

			far := &ads.Advertisement{ID: ads.ID{Seq: 2}, Origin: geo.Point{X: -1e5}, R: 300, D: 60}
			col.OnIssue(0, far, 0)
			for i := 0; i < n; i++ {
				col.OnFirstReceive(i, far, 2)
			}
			if tr := col.tracked[far.ID]; slices.ContainsFunc(tr.member, func(w uint64) bool { return w != 0 }) || len(tr.received) != 0 {
				t.Errorf("far ad: member words %x, %d slots; want an empty ledger", tr.member, len(tr.received))
			}
			if rep, _ := col.Report(far.ID); rep.PassedThrough != 0 || rep.Delivered != 0 {
				t.Errorf("far ad: report %d/%d, want 0/0", rep.Delivered, rep.PassedThrough)
			}
		})
	}
}

func TestDeliveryTimePercentiles(t *testing.T) {
	models := []mobility.Model{
		mobility.NewStatic(geo.Point{X: 0, Y: 0}),
		mobility.NewStatic(geo.Point{X: 100, Y: 0}),
		mobility.NewStatic(geo.Point{X: 200, Y: 0}),
	}
	s, n, col := buildNet(t, models, coreConfig())
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(1, func() { issued, _ = n.IssueAd(0, core.AdSpec{R: 500, D: 100}) })
	s.Run(200)
	rep, err := col.Report(issued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.P50 < 0 || rep.P95 < rep.P50 {
		t.Errorf("percentiles P50=%v P95=%v inconsistent", rep.P50, rep.P95)
	}
	if rep.P95 > rep.DeliveryTimes.Max+1e-9 || rep.P50 < rep.DeliveryTimes.Min-1e-9 {
		t.Errorf("percentiles outside [min,max]: P50=%v P95=%v range [%v,%v]",
			rep.P50, rep.P95, rep.DeliveryTimes.Min, rep.DeliveryTimes.Max)
	}
}

// TestNoTrafficReportFinite is the zero-denominator regression gate: an ad
// whose advertising area never contains a single peer (and a collector that
// saw no traffic at all) must report all-zero rates — never NaN or ±Inf,
// which would poison downstream aggregation and break JSON encoding
// (encoding/json rejects non-finite float64s).
func TestNoTrafficReportFinite(t *testing.T) {
	models := []mobility.Model{
		mobility.NewStatic(geo.Point{X: 0, Y: 0}),
		mobility.NewStatic(geo.Point{X: 100, Y: 0}),
	}
	s, n, col := buildNet(t, models, coreConfig())
	n.Start()
	// Track an ad centered 50 km away: nobody ever enters, nothing is
	// delivered, no frame is attributed to it.
	far := &ads.Advertisement{
		ID:       ads.ID{Issuer: 0, Seq: 7},
		Origin:   geo.Point{X: 50000, Y: 50000},
		IssuedAt: 0,
		R:        500,
		D:        100,
	}
	col.OnIssue(0, far, 0)
	s.Run(150) // drive the sampler across the whole life cycle

	rep, err := col.Report(far.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PassedThrough != 0 || rep.Delivered != 0 {
		t.Fatalf("expected empty track, got %d/%d", rep.Delivered, rep.PassedThrough)
	}
	for name, v := range map[string]float64{
		"DeliveryRate": rep.DeliveryRate,
		"Mean":         rep.DeliveryTimes.Mean,
		"StdDev":       rep.DeliveryTimes.StdDev,
		"Min":          rep.DeliveryTimes.Min,
		"Max":          rep.DeliveryTimes.Max,
		"P50":          rep.P50,
		"P95":          rep.P95,
		"LoadGini":     col.LoadGini(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
		if v != 0 {
			t.Errorf("%s = %v, want 0 with no traffic", name, v)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("no-traffic report does not marshal: %v", err)
	}
}
