package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"instantad/internal/ads"
)

// paperParams mirrors the paper's illustrative scale: R=10, D=50 on unit
// axes (DistUnit/TimeUnit = 1).
func paperParams(alpha, beta float64) ProbParams {
	return ProbParams{Alpha: alpha, Beta: beta, DistUnit: 1, TimeUnit: 1}
}

// fieldParams mirrors the experiment scale: R₀=500 m, D₀=1800 s with the
// default unit scaling R₀/10 and D₀/10.
func fieldParams() ProbParams {
	return ProbParams{Alpha: 0.5, Beta: 0.5, DistUnit: 50, TimeUnit: 180}
}

func TestProbParamsValidate(t *testing.T) {
	bad := []ProbParams{
		{Alpha: 0, Beta: 0.5, DistUnit: 1, TimeUnit: 1},
		{Alpha: 1, Beta: 0.5, DistUnit: 1, TimeUnit: 1},
		{Alpha: 0.5, Beta: 0, DistUnit: 1, TimeUnit: 1},
		{Alpha: 0.5, Beta: 1, DistUnit: 1, TimeUnit: 1},
		{Alpha: 0.5, Beta: 0.5, DistUnit: -1, TimeUnit: 1},
		{Alpha: 0.5, Beta: 0.5, DistUnit: 1, TimeUnit: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
	if err := fieldParams().Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
	// Zero units mean "auto-scale to the ad" and are valid.
	auto := ProbParams{Alpha: 0.5, Beta: 0.5}
	if err := auto.Validate(); err != nil {
		t.Errorf("auto-unit params rejected: %v", err)
	}
}

func TestAutoUnitsMatchExplicitAtCanonicalScale(t *testing.T) {
	// Auto units for an R=500/D=1800 ad equal DistUnit=50, TimeUnit=180.
	auto := ProbParams{Alpha: 0.5, Beta: 0.5}
	expl := fieldParams()
	for _, dist := range []float64{0, 100, 400, 520, 900} {
		for _, age := range []float64{0, 300, 1700} {
			a := ForwardProb(auto, dist, 500, 1800, age)
			e := ForwardProb(expl, dist, 500, 1800, age)
			if math.Abs(a-e) > 1e-12 {
				t.Errorf("dist %v age %v: auto %v vs explicit %v", dist, age, a, e)
			}
		}
	}
}

func TestRadiusAtEndpoints(t *testing.T) {
	p := paperParams(0.5, 0.5)
	const r, d = 10.0, 50.0
	// Young ad: radius ≈ R (β^50 is negligible).
	if got := RadiusAt(p, r, d, 0); math.Abs(got-r) > 1e-9 {
		t.Errorf("R_0 = %v, want ≈%v", got, r)
	}
	// Exactly at expiry the radius collapses to 0.
	if got := RadiusAt(p, r, d, d); got != 0 {
		t.Errorf("R_D = %v, want 0", got)
	}
	// Beyond expiry it stays 0.
	if got := RadiusAt(p, r, d, d+1); got != 0 {
		t.Errorf("R_{D+1} = %v, want 0", got)
	}
	// Non-positive base radius.
	if got := RadiusAt(p, 0, d, 1); got != 0 {
		t.Errorf("R with zero base = %v", got)
	}
}

func TestRadiusAtMonotoneInAgeProperty(t *testing.T) {
	p := fieldParams()
	f := func(a1Raw, a2Raw uint16) bool {
		a1 := float64(a1Raw) / math.MaxUint16 * 2000
		a2 := float64(a2Raw) / math.MaxUint16 * 2000
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		return RadiusAt(p, 500, 1800, a1) >= RadiusAt(p, 500, 1800, a2)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRadiusAtStableThenSharpDrop(t *testing.T) {
	// The paper: R_t ≈ R for most of the lifetime, then drops drastically
	// near t = D.
	p := fieldParams()
	const r, d = 500.0, 1800.0
	if rt := RadiusAt(p, r, d, d/2); rt < 0.95*r {
		t.Errorf("R at half-life = %v, want ≥ 0.95 R", rt)
	}
	if rt := RadiusAt(p, r, d, 0.95*d); rt > 0.5*r {
		t.Errorf("R at 95%% life = %v, want ≤ 0.5 R", rt)
	}
}

func TestForwardProbShape(t *testing.T) {
	p := paperParams(0.9, 0.5)
	const r, d = 10.0, 50.0
	// Near the center P ≈ 1.
	if got := ForwardProb(p, 0, r, d, 0); got < 0.65 {
		t.Errorf("P(0) = %v, want high", got)
	}
	// Both branches meet at 1−α at the boundary.
	rt := RadiusAt(p, r, d, 0)
	inside := ForwardProb(p, rt, r, d, 0)
	outside := ForwardProb(p, rt+1e-9, r, d, 0)
	if math.Abs(inside-(1-0.9)) > 1e-6 {
		t.Errorf("P(Rt) = %v, want %v", inside, 1-0.9)
	}
	if math.Abs(inside-outside) > 1e-6 {
		t.Errorf("discontinuity at boundary: %v vs %v", inside, outside)
	}
	// Far outside P ≈ 0.
	if got := ForwardProb(p, 3*r, r, d, 0); got > 0.02 {
		t.Errorf("P(3R) = %v, want ≈0", got)
	}
	// Expired ad never forwards.
	if got := ForwardProb(p, 1, r, d, d+1); got != 0 {
		t.Errorf("P after expiry = %v", got)
	}
}

func TestForwardProbMonotoneInDistanceProperty(t *testing.T) {
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		p := fieldParams()
		p.Alpha = alpha
		f := func(d1Raw, d2Raw uint16) bool {
			d1 := float64(d1Raw) / math.MaxUint16 * 1500
			d2 := float64(d2Raw) / math.MaxUint16 * 1500
			if d1 > d2 {
				d1, d2 = d2, d1
			}
			return ForwardProb(p, d1, 500, 1800, 100) >= ForwardProb(p, d2, 500, 1800, 100)-1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("alpha=%v: %v", alpha, err)
		}
	}
}

func TestForwardProbInUnitIntervalProperty(t *testing.T) {
	f := func(aRaw uint8, distRaw, ageRaw uint16) bool {
		alpha := 0.05 + float64(aRaw)/255*0.9
		p := fieldParams()
		p.Alpha = alpha
		dist := float64(distRaw) / math.MaxUint16 * 3000
		age := float64(ageRaw) / math.MaxUint16 * 3000
		v := ForwardProb(p, dist, 500, 1800, age)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHigherAlphaLowersProbability(t *testing.T) {
	// "Intuitively, higher α leads to lower P."
	p1 := fieldParams()
	p1.Alpha = 0.1
	p9 := fieldParams()
	p9.Alpha = 0.9
	for _, dist := range []float64{50, 250, 450, 490} {
		lo := ForwardProb(p9, dist, 500, 1800, 100)
		hi := ForwardProb(p1, dist, 500, 1800, 100)
		if lo > hi {
			t.Errorf("dist %v: P(α=0.9)=%v > P(α=0.1)=%v", dist, lo, hi)
		}
	}
}

func TestForwardProbOpt1Shape(t *testing.T) {
	// Fig 5's illustration: R = 10, DIS = 3.
	p := paperParams(0.9, 0.5)
	const r, d, dis = 10.0, 50.0, 3.0
	rt := RadiusAt(p, r, d, 0)
	inner := rt - dis
	// Annulus region matches Formula 1.
	for _, dist := range []float64{inner, inner + 1, rt - 0.5, rt} {
		got := ForwardProbOpt1(p, dist, r, d, 0, dis)
		want := ForwardProb(p, dist, r, d, 0)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("annulus dist %v: opt1=%v, formula1=%v", dist, got, want)
		}
	}
	// Outside matches Formula 1 too.
	got := ForwardProbOpt1(p, rt+2, r, d, 0, dis)
	want := ForwardProb(p, rt+2, r, d, 0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("outside: opt1=%v, formula1=%v", got, want)
	}
	// Continuity at the inner boundary.
	in := ForwardProbOpt1(p, inner-1e-9, r, d, 0, dis)
	at := ForwardProbOpt1(p, inner, r, d, 0, dis)
	if math.Abs(in-at) > 1e-6 {
		t.Errorf("discontinuity at inner boundary: %v vs %v", in, at)
	}
	// Central damping: with the experiment's α=0.5 the probability at the
	// center is far below the annulus ("only peers within the annular region
	// are active in advertisement gossiping with high probability").
	p5 := paperParams(0.5, 0.5)
	center := ForwardProbOpt1(p5, 0, r, d, 0, dis)
	annulus := ForwardProbOpt1(p5, rt-dis/2, r, d, 0, dis)
	if center >= annulus/5 {
		t.Errorf("center %v not damped versus annulus %v", center, annulus)
	}
	// Expired: zero.
	if v := ForwardProbOpt1(p, 1, r, d, d+1, dis); v != 0 {
		t.Errorf("opt1 after expiry = %v", v)
	}
}

func TestForwardProbOpt1DegeneratesToPure(t *testing.T) {
	// "The model restores to pure gossiping model gradually with DIS rising
	// close to R."
	p := fieldParams()
	for _, dist := range []float64{0, 100, 300, 499, 600} {
		got := ForwardProbOpt1(p, dist, 500, 1800, 100, 600)
		want := ForwardProb(p, dist, 500, 1800, 100)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("DIS≥Rt at dist %v: %v vs %v", dist, got, want)
		}
	}
}

func TestForwardProbOpt1InUnitIntervalProperty(t *testing.T) {
	f := func(aRaw, disRaw uint8, distRaw uint16) bool {
		p := fieldParams()
		p.Alpha = 0.05 + float64(aRaw)/255*0.9
		dis := 10 + float64(disRaw)/255*600
		dist := float64(distRaw) / math.MaxUint16 * 2000
		v := ForwardProbOpt1(p, dist, 500, 1800, 100, dis)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOpt1ReducesExpectedMessages(t *testing.T) {
	// Integrating P over the disk: Opt-1 must yield a strictly smaller mass
	// than Formula 1 (fewer expected broadcasts per round).
	p := fieldParams()
	const r, d, dis = 500.0, 1800.0, 125.0
	var pure, opt float64
	for dist := 0.0; dist < r; dist += 5 {
		ring := dist // ∝ circumference
		pure += ForwardProb(p, dist, r, d, 100) * ring
		opt += ForwardProbOpt1(p, dist, r, d, 100, dis) * ring
	}
	if opt >= pure*0.8 {
		t.Errorf("opt mass %v not well below pure mass %v", opt, pure)
	}
}

// TestScoreWithinBudgetOfExactProperty: wherever the scorer answers, its answer
// is within 1e-12 relative of Formulas 2 and 1/3 as math.Pow evaluates them —
// three orders inside scoreMargin — and an exact 0 only where they are exactly
// 0. Over a million random draws of every input, and each of the first
// hundred thousand moved onto every branch boundary and one ulp either side.
func TestScoreWithinBudgetOfExactProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var worst float64
	answered, refused := 0, 0
	check := func(cfg Config, dist, r, d, age float64) {
		want := ForwardProb(cfg.Params, dist, r, d, age)
		if cfg.Protocol.usesOpt1() {
			want = ForwardProbOpt1(cfg.Params, dist, r, d, age, cfg.DIS)
		}
		sc := newScorer(cfg)
		got := sc.score(dist, r, d, age)
		if got != got {
			refused++
			return
		}
		answered++
		rel := math.Abs(got-want) / want
		if got == 0 || want == 0 {
			rel = math.Abs(got - want) // both, or neither
		}
		if !(rel <= 1e-12) {
			t.Fatalf("%+v dist=%v r=%v d=%v age=%v: score %v, exact %v (rel %.3g)", cfg, dist, r, d, age, got, want, rel)
		}
		worst = math.Max(worst, rel)
	}
	around := func(x float64) []float64 {
		return []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))}
	}
	for i := 0; i < 1_000_000; i++ {
		cfg := Config{Protocol: Gossip, Params: ProbParams{
			Alpha: 0.01 + 0.98*rnd.Float64(), Beta: 0.01 + 0.98*rnd.Float64(),
		}}
		r, d := 50+1950*rnd.Float64(), 5+1995*rnd.Float64()
		if rnd.Intn(2) == 0 {
			cfg.Params.DistUnit, cfg.Params.TimeUnit = 1+199*rnd.Float64(), 1+199*rnd.Float64()
		}
		if rnd.Intn(2) == 0 {
			cfg.Protocol, cfg.DIS = GossipOpt1, 1.5*r*rnd.Float64()
		}
		age, dist := 1.1*d*rnd.Float64(), 3*r*rnd.Float64()
		check(cfg, dist, r, d, age)
		if i >= 100_000 {
			continue
		}
		rt := RadiusAt(cfg.Params, r, d, age)
		for _, dist := range append(append(around(rt), around(rt-cfg.DIS)...), 0) {
			check(cfg, dist, r, d, age)
		}
		if cfg.Protocol.usesOpt1() { // DIS = R_t: where Formula 3 becomes Formula 1
			for _, dis := range around(rt) {
				cfg.DIS = dis
				check(cfg, dist, r, d, age)
				check(cfg, 0, r, d, age)
			}
		}
		for _, age := range append(around(d), 0, d*(1-1e-7)) {
			check(cfg, dist, r, d, age)
		}
	}
	if answered < 1_500_000 || refused == 0 {
		t.Errorf("%d answers and %d refusals: one side went untested", answered, refused)
	}
	t.Logf("%d answers (%d refusals), worst relative difference %.3g", answered, refused, worst)
}

// TestPostponeInterval checks Formula 4 and, for each row, the whole slots
// Rules.Postpone advances an entry by: the interval rounded up, never down,
// and never fewer than one slot, even at zero overlap on a one-slot round.
func TestPostponeInterval(t *testing.T) {
	for _, c := range []struct {
		name           string
		roundTime      float64
		roundSlots     int
		p, theta, want float64 // want is the interval in rounds
		wantSlots      int64
	}{
		// p = 0 (or θ = π with any p): no exponent → interval = Δt.
		{"p=0", 5, 64, 0, 0, 1, 64},
		{"θ=π", 5, 64, 1, math.Pi, 1, 64},
		// Maximum: p = 1, θ = 0 → Δt·e, 173.97 slots.
		{"max", 5, 64, 1, 0, math.E, 174},
		// Out-of-range p clamps.
		{"clamped low", 5, 64, -3, 0, 1, 64},
		{"clamped high", 5, 64, 7, 0, math.E, 174},
		// One slot per round: zero overlap is one slot, and a hair over Δt
		// is two, not one.
		{"one slot, p=0", 5, 1, 0, 0, 1, 1},
		{"one slot, rounds up", 5, 1, 0.01, math.Pi / 2, math.Exp(0.005), 2},
		{"one slot, max", 5, 1, 1, 0, math.E, 3},
		// A live node's Δt, where the slot width is not a binary fraction.
		{"40ms, half", 0.04, 64, 0.5, math.Pi / 3, math.Exp(0.375), 94},
	} {
		if got := postponeInterval(c.roundTime, c.p, c.theta); math.Abs(got-c.want*c.roundTime) > 1e-9 {
			t.Errorf("%s: interval %v, want %v", c.name, got, c.want*c.roundTime)
		}
		cfg := testConfig(GossipOpt2)
		cfg.RoundTime, cfg.RoundSlots = c.roundTime, c.roundSlots
		r, err := NewRules(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := &ads.Entry{Slot: 1000}
		slots := r.Postpone(e, c.p, c.theta)
		if slots != c.wantSlots || e.Slot != 1000+slots {
			t.Errorf("%s: Postpone advanced the slot %d → %d and returned %d, want %d", c.name, 1000, e.Slot, slots, c.wantSlots)
		}
		if w := c.roundTime / float64(c.roundSlots); float64(slots)*w < c.want*c.roundTime-1e-12 {
			t.Errorf("%s: %d slots of %v s round %v s down", c.name, slots, w, c.want*c.roundTime)
		}
	}
}

func TestPostponeIntervalMonotoneProperty(t *testing.T) {
	// Larger overlap and smaller angle postpone longer.
	f := func(p1Raw, p2Raw, th1Raw, th2Raw uint8) bool {
		p1 := float64(p1Raw) / 255
		p2 := float64(p2Raw) / 255
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		th := float64(th1Raw) / 255 * math.Pi
		if postponeInterval(5, p1, th) > postponeInterval(5, p2, th)+1e-9 {
			return false
		}
		t1 := float64(th1Raw) / 255 * math.Pi
		t2 := float64(th2Raw) / 255 * math.Pi
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		pp := float64(p2Raw) / 255
		return postponeInterval(5, pp, t1) >= postponeInterval(5, pp, t2)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPostponeIntervalBoundsProperty(t *testing.T) {
	f := func(pRaw, thRaw uint8) bool {
		v := postponeInterval(5, float64(pRaw)/255, float64(thRaw)/255*math.Pi)
		return v >= 5-1e-9 && v <= 5*math.E+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
