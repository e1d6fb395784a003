package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/fm"
	"instantad/internal/geo"
	"instantad/internal/rng"
)

func popConfig() Config {
	cfg := testConfig(Gossip)
	cfg.Popularity = PopularityConfig{
		Enabled:    true,
		F:          16,
		L:          32,
		SketchSeed: 1234,
		RInc:       100,
		DInc:       60,
		RMax:       1200,
		DMax:       3600,
	}
	return cfg
}

func TestRankWithoutSketch(t *testing.T) {
	if r := Rank(&ads.Advertisement{R: 1, D: 1}); r != 0 {
		t.Errorf("rank = %d, want 0", r)
	}
}

func TestApplyPopularityOnlyWhenInterested(t *testing.T) {
	_, n := staticNet(t, popConfig(), line(2, 100))
	p := n.Peer(1)
	ad := &ads.Advertisement{
		ID: ads.ID{Issuer: 0, Seq: 0}, R: 500, D: 600, Category: "petrol",
		Sketch: fm.New(16, 32, 1234),
	}
	// Not interested: nothing changes.
	n.rules.applyPopularity(ad, p.userID, p.interests)
	if Rank(ad) != 0 || ad.R != 500 {
		t.Error("uninterested peer modified the ad")
	}
	// Interested: rank rises and the ad is enlarged.
	p.SetInterests("petrol")
	n.rules.applyPopularity(ad, p.userID, p.interests)
	if Rank(ad) == 0 {
		t.Error("rank did not rise for interested peer")
	}
	if ad.R <= 500 || ad.D <= 600 {
		t.Errorf("ad not enlarged: R=%v D=%v", ad.R, ad.D)
	}
	// Re-applying is idempotent (same user already hashed).
	r, d := ad.R, ad.D
	n.rules.applyPopularity(ad, p.userID, p.interests)
	if ad.R != r || ad.D != d {
		t.Error("re-processing by the same peer enlarged the ad again")
	}
}

func TestEnlargeCapsRespected(t *testing.T) {
	cfg := PopularityConfig{Enabled: true, F: 4, L: 32, RInc: 1e6, DInc: 1e6, RMax: 800, DMax: 2000}
	ad := &ads.Advertisement{R: 500, D: 600}
	ad.R, ad.D = enlarged(ad.R, ad.D, 1, cfg)
	if ad.R != 800 || ad.D != 2000 {
		t.Errorf("caps not applied: R=%v D=%v", ad.R, ad.D)
	}
}

func TestEnlargeNoCaps(t *testing.T) {
	cfg := PopularityConfig{Enabled: true, F: 4, L: 32, RInc: 100, DInc: 50}
	ad := &ads.Advertisement{R: 500, D: 600}
	ad.R, ad.D = enlarged(ad.R, ad.D, 3, cfg) // divisor log2(4) = 2
	if math.Abs(ad.R-550) > 1e-9 || math.Abs(ad.D-625) > 1e-9 {
		t.Errorf("enlarge wrong: R=%v D=%v, want 550/625", ad.R, ad.D)
	}
}

func TestEnlargeSlowsWithRank(t *testing.T) {
	cfg := PopularityConfig{Enabled: true, F: 4, L: 32, RInc: 100, DInc: 0}
	a := &ads.Advertisement{R: 500, D: 600}
	b := &ads.Advertisement{R: 500, D: 600}
	a.R, a.D = enlarged(a.R, a.D, 1, cfg)
	b.R, b.D = enlarged(b.R, b.D, 100, cfg)
	da, db := a.R-500, b.R-500
	if db >= da {
		t.Errorf("growth at rank 100 (%v) not below rank 1 (%v)", db, da)
	}
}

func TestPopularityRankApproximatesInterestedPeers(t *testing.T) {
	// A dense clump of 30 peers, 20 interested: after dissemination the
	// issuer-side rank estimate should be near 20 (FM error permitting).
	pts := make([]geo.Point, 30)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i%6) * 40, Y: float64(i/6) * 40}
	}
	cfg := popConfig()
	s, n := staticNet(t, cfg, pts)
	interested := 0
	for i := 0; i < n.NumPeers(); i++ {
		if i%3 != 0 { // 20 of 30
			n.Peer(i).SetInterests("petrol")
			interested++
		}
	}
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(1, func() { issued, _ = n.IssueAd(1, AdSpec{R: 500, D: 400, Category: "petrol"}) })
	s.Run(200)
	// Collect the maximum rank any cached copy reports.
	best := 0
	for i := 0; i < n.NumPeers(); i++ {
		if e := n.Peer(i).Cache().Get(issued.ID); e != nil {
			if r := Rank(e.Ad); r > best {
				best = r
			}
		}
	}
	if best == 0 {
		t.Fatal("no ranked copies found")
	}
	// FM with F=16 has ≈ 19.5 % standard error; accept a generous window.
	if best < interested/3 || best > interested*3 {
		t.Errorf("rank estimate %d far from interested count %d", best, interested)
	}
}

func TestPopularityEnlargesThroughNetwork(t *testing.T) {
	pts := make([]geo.Point, 20)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i%5) * 50, Y: float64(i/5) * 50}
	}
	cfg := popConfig()
	s, n := staticNet(t, cfg, pts)
	for i := 0; i < n.NumPeers(); i++ {
		n.Peer(i).SetInterests("grocery")
	}
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(1, func() { issued, _ = n.IssueAd(0, AdSpec{R: 500, D: 400, Category: "grocery"}) })
	s.Run(200)
	grew := false
	for i := 0; i < n.NumPeers(); i++ {
		if e := n.Peer(i).Cache().Get(issued.ID); e != nil {
			if e.Ad.R > 500 && e.Ad.D > 400 {
				grew = true
			}
			if e.Ad.R > cfg.Popularity.RMax || e.Ad.D > cfg.Popularity.DMax {
				t.Errorf("peer %d copy exceeds caps: R=%v D=%v", i, e.Ad.R, e.Ad.D)
			}
		}
	}
	if !grew {
		t.Error("no copy was enlarged despite universal interest")
	}
}

func TestPopularityDisabledNoSketch(t *testing.T) {
	cfg := testConfig(Gossip) // popularity disabled
	s, n := staticNet(t, cfg, line(3, 150))
	n.Peer(1).SetInterests("petrol")
	n.Start()
	var issued *ads.Advertisement
	s.Schedule(1, func() { issued, _ = n.IssueAd(0, AdSpec{R: 500, D: 300, Category: "petrol"}) })
	s.Run(100)
	if issued.Sketch != nil {
		t.Error("sketch attached despite popularity disabled")
	}
	if e := n.Peer(1).Cache().Get(issued.ID); e != nil {
		if e.Ad.R != 500 {
			t.Errorf("ad enlarged with popularity off: R=%v", e.Ad.R)
		}
	} else {
		t.Error("peer 1 did not cache the ad")
	}
}

func TestPopularityDefaults(t *testing.T) {
	withPopularity := func(pc PopularityConfig) PopularityConfig {
		cfg := testConfig(Gossip)
		cfg.Popularity = pc
		r, err := NewRules(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.cfg.Popularity
	}
	if c := withPopularity(PopularityConfig{Enabled: true}); c.F != 8 || c.L != 32 {
		t.Errorf("defaults F=%d L=%d, want 8×32", c.F, c.L)
	}
	if c := withPopularity(PopularityConfig{Enabled: true, F: 3, L: 5}); c.F != 3 || c.L != 5 {
		t.Errorf("explicit shape became F=%d L=%d, want 3×5", c.F, c.L)
	}
	if off := withPopularity(PopularityConfig{}); off.F != 0 {
		t.Error("disabled config was defaulted")
	}
}

func TestDuplicateMergeIsDuplicateInsensitive(t *testing.T) {
	// Hearing the same enlarged copy many times must not grow R/D further,
	// and sketch merge must keep the distinct-count semantics.
	_, n := staticNet(t, popConfig(), line(2, 100))
	p := n.Peer(1)
	base := &ads.Advertisement{
		ID: ads.ID{Issuer: 0, Seq: 0}, R: 500, D: 600, Category: "petrol",
		Sketch: fm.New(16, 32, 1234),
	}
	e, _ := p.cache.Insert(base.Clone(), 0.5)
	in := base.Clone()
	in.Sketch.Add(777)
	in.R, in.D = 600, 700
	for i := 0; i < 5; i++ {
		n.rules.Merge(&p.cache, e, in)
	}
	if e.Ad.R != 600 || e.Ad.D != 700 {
		t.Errorf("merge adopted wrong R/D: %v/%v", e.Ad.R, e.Ad.D)
	}
	if k := p.cache.Slots()[0].Key; k != e.Ad.Key() {
		t.Errorf("slot key %+v after the merge, ad's %+v", k, e.Ad.Key())
	}
	if !reflect.DeepEqual(e.Ad.Sketch, in.Sketch) {
		t.Error("sketch merge lost bits")
	}
}

// TestInterestOrderAndDuplicatesDoNotMatter sets one interest set in several
// orders and with repeats: each must store the same sorted set and give the
// same MatchesAny answers and the same popularity update, bit for bit.
func TestInterestOrderAndDuplicatesDoNotMatter(t *testing.T) {
	variants := [][]string{
		{"grocery", "petrol"},
		{"petrol", "grocery"},
		{"petrol", "grocery", "petrol", "grocery"},
		{"grocery", "grocery", "petrol"},
	}
	type outcome struct {
		interests []string
		matches   [3]bool
		r, d      uint64
		rank      int
	}
	var first outcome
	for i, v := range variants {
		_, n := staticNet(t, popConfig(), line(2, 100))
		p := n.Peer(1)
		p.SetInterests(v...)
		var o outcome
		o.interests = p.interests
		for j, cat := range []string{"petrol", "grocery", "parking"} {
			o.matches[j] = (&ads.Advertisement{Category: cat}).MatchesAny(p.interests)
		}
		ad := &ads.Advertisement{R: 500, D: 600, Category: "parking", Keywords: []string{"grocery"}, Sketch: fm.New(16, 32, 1234)}
		n.rules.applyPopularity(ad, p.userID, p.interests)
		o.r, o.d, o.rank = math.Float64bits(ad.R), math.Float64bits(ad.D), Rank(ad)
		if i == 0 {
			first = o
			if o.rank == 0 || o.matches != [3]bool{true, true, false} {
				t.Fatalf("interests %q: matches %v, rank %d: the reference case tests nothing", v, o.matches, o.rank)
			}
			continue
		}
		if !reflect.DeepEqual(o, first) {
			t.Errorf("interests %q: %+v, want %+v as for %q", v, o, first, variants[0])
		}
	}
}

// TestAdmitSharedMatchesPrivate checks Admit's deferred copy against the
// private path, which applies Algorithm 5 before ranking: on the same cache,
// a shared snapshot and a private copy of it make the same victim and entry
// (R, D, sketch bits, probability), the snapshot itself is never written, and
// it is copied exactly when it enters and the update writes to it. A third
// of the arrivals already carry the peer's sketch bits, so the update writes
// nothing and the entry keeps the snapshot.
func TestAdmitSharedMatchesPrivate(t *testing.T) {
	cfg := popConfig()
	rules, err := NewRules(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := rules.cfg.Popularity
	src := rand.New(rand.NewSource(5))
	interests := ads.InterestSet([]string{"petrol"})
	dropped, kept, copied := 0, 0, 0
	for trial := range 2000 {
		const k = 4
		shared, private := ads.NewCache(k), ads.NewCache(k)
		pos := geo.Point{X: src.Float64() * 1000, Y: src.Float64() * 1000}
		now := 100 + src.Float64()*100
		for i := range src.Intn(k + 1) {
			ad := &ads.Advertisement{ID: ads.ID{Issuer: 1, Seq: uint32(i)},
				Origin: geo.Point{X: src.Float64() * 1000, Y: src.Float64() * 1000}, IssuedAt: src.Float64() * 100,
				R: 300 + src.Float64()*400, D: 150 + src.Float64()*100}
			shared.Insert(ad, 0)
			private.Insert(ad, 0)
		}
		userID := src.Uint64()
		snap := &ads.Advertisement{ID: ads.ID{Issuer: 2, Seq: uint32(trial)},
			Origin: geo.Point{X: src.Float64() * 1000, Y: src.Float64() * 1000}, IssuedAt: src.Float64() * 100,
			R: 300 + src.Float64()*400, D: 150 + src.Float64()*100, Category: "petrol",
			Sketch: fm.New(pc.F, pc.L, pc.SketchSeed)}
		for range src.Intn(40) {
			snap.Sketch.Add(src.Uint64())
		}
		if src.Intn(3) == 0 {
			snap.Sketch.Add(userID)
		}
		before := snap.Clone()
		own := snap.Clone()
		es, vs := rules.Admit(shared, rng.New(1), snap, true, userID, interests, false, pos, now)
		ep, vp := rules.Admit(private, rng.New(1), own, false, userID, interests, false, pos, now)
		if !reflect.DeepEqual(snap, before) {
			t.Fatalf("trial %d: the shared snapshot was written", trial)
		}
		if (vs == nil) != (vp == nil) || vs != nil && vs.Ad.ID != vp.Ad.ID {
			t.Fatalf("trial %d: victims %v and %v", trial, vs, vp)
		}
		if (es == nil) != (ep == nil) {
			t.Fatalf("trial %d: shared entered %v, private entered %v", trial, es != nil, ep != nil)
		}
		if es == nil {
			dropped++
			continue
		}
		cloned := es.Ad != snap
		if writes := !before.Sketch.Covers(own.Sketch); cloned != writes || es.Shared == cloned {
			t.Fatalf("trial %d: copied %v, shared %v, the update writes %v", trial, cloned, es.Shared, writes)
		}
		if cloned {
			copied++
		} else {
			kept++
		}
		if math.Float64bits(es.Ad.R) != math.Float64bits(ep.Ad.R) || math.Float64bits(es.Ad.D) != math.Float64bits(ep.Ad.D) ||
			math.Float64bits(es.Prob) != math.Float64bits(ep.Prob) || !es.Ad.Sketch.Covers(ep.Ad.Sketch) || !ep.Ad.Sketch.Covers(es.Ad.Sketch) {
			t.Fatalf("trial %d: shared entry R %v D %v P %v, private R %v D %v P %v",
				trial, es.Ad.R, es.Ad.D, es.Prob, ep.Ad.R, ep.Ad.D, ep.Prob)
		}
	}
	t.Logf("dropped %d, entered as the snapshot %d, entered as a copy %d", dropped, kept, copied)
	if dropped == 0 || kept == 0 || copied == 0 {
		t.Error("a path was never taken")
	}
}
