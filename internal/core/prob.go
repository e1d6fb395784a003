// Package core implements the paper's advertising protocols: Restricted
// Flooding (the baseline), pure Opportunistic Gossiping, and the two
// optimization mechanisms — the velocity-constrained annular probability
// (Optimized Gossiping-1) and overhearing-based gossip postponement
// (Optimized Gossiping-2) — plus the FM-sketch popularity mechanism that
// enlarges the advertising area and lifetime of popular ads.
//
// This file holds the closed-form pieces: the forwarding-probability
// functions (Formulas 1 and 3), the advertising-radius decay (Formula 2) and
// the postponement interval (Formula 4).
//
// The paper draws its probability and decay curves on unitless axes
// (R = 10, D = 50); to give the tuning parameters α and β the same leverage
// at field scale, distances and ages are converted to units before
// exponentiation (DistUnit ≈ R₀/10, TimeUnit ≈ D₀/10 by default — see
// DESIGN.md, "Formula reconstruction").
package core

import (
	"fmt"
	"math"
)

// ProbParams holds the tuning parameters of the propagation model.
type ProbParams struct {
	// Alpha ∈ (0,1) sets how fast the forwarding probability drops with
	// distance (Formula 1). Larger α ⇒ faster drop ⇒ fewer messages.
	Alpha float64
	// Beta ∈ (0,1) sets how fast the advertising radius decays with age
	// (Formula 2). The paper finds its impact negligible.
	Beta float64
	// DistUnit converts meters to probability-exponent units. Zero selects
	// the per-ad default R/10, which reproduces the paper's unitless curves
	// (drawn with R = 10) for any advertising radius.
	DistUnit float64
	// TimeUnit converts seconds to decay-exponent units. Zero selects the
	// per-ad default D/10.
	TimeUnit float64
}

// Validate checks the parameters are inside their domains.
func (p ProbParams) Validate() error {
	if !(p.Alpha > 0 && p.Alpha < 1) {
		return fmt.Errorf("core: alpha %v outside (0,1)", p.Alpha)
	}
	if !(p.Beta > 0 && p.Beta < 1) {
		return fmt.Errorf("core: beta %v outside (0,1)", p.Beta)
	}
	if !finiteNonNeg(p.DistUnit) {
		return fmt.Errorf("core: dist unit %v must be finite and non-negative (0 = auto R/10)", p.DistUnit)
	}
	if !finiteNonNeg(p.TimeUnit) {
		return fmt.Errorf("core: time unit %v must be finite and non-negative (0 = auto D/10)", p.TimeUnit)
	}
	return nil
}

// finiteNonNeg reports x ∈ [0, +Inf); NaN fails it, as it would not `x < 0`.
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// distUnit resolves the distance unit for an ad with base radius r.
func (p ProbParams) distUnit(r float64) float64 {
	if p.DistUnit > 0 {
		return p.DistUnit
	}
	return r / 10
}

// timeUnit resolves the time unit for an ad with duration d.
func (p ProbParams) timeUnit(d float64) float64 {
	if p.TimeUnit > 0 {
		return p.TimeUnit
	}
	return d / 10
}

// RadiusAt implements Formula 2: the radius of the advertising area for an
// ad with current base radius R and duration D at the given age.
//
//	Rt = (1 − β^((D−age)/TimeUnit))·R   for age ≤ D
//	Rt = 0                              for age > D
//
// Rt stays close to R for most of the lifetime and collapses to exactly 0 at
// age = D, which eliminates the advertisement.
func RadiusAt(p ProbParams, r, d, age float64) float64 {
	if age > d || r <= 0 || d <= 0 {
		return 0
	}
	return (1 - math.Pow(p.Beta, (d-age)/p.timeUnit(d))) * r
}

// ForwardProb implements Formula 1: the probability that a peer at distance
// dist from the issuing location forwards an ad with base radius R, duration
// D and the given age.
//
//	P = 1 − α^(Rt/u + 1 − dist/u)     dist ≤ Rt
//	P = (1−α)·α^((dist−Rt)/u)         dist > Rt
//
// P ≈ 1 near the center, falls to 1−α exactly at the boundary (both branches
// agree there), and decays geometrically outside — a dense distribution
// inside the advertising area and a sparse one outside, as required.
func ForwardProb(p ProbParams, dist, r, d, age float64) float64 {
	return forwardProbRt(p, dist, r, RadiusAt(p, r, d, age))
}

// forwardProbRt is Formula 1 given the Formula-2 radius rt = RadiusAt(p, r,
// d, age). The radius depends on the ad and the instant but not on the peer,
// so a caller refreshing many peers' entries at one instant computes it once.
func forwardProbRt(p ProbParams, dist, r, rt float64) float64 {
	if rt <= 0 {
		return 0
	}
	u := p.distUnit(r)
	du := dist / u
	rtu := rt / u
	if dist <= rt {
		return 1 - math.Pow(p.Alpha, rtu+1-du)
	}
	return (1 - p.Alpha) * math.Pow(p.Alpha, du-rtu)
}

// ForwardProbOpt1 implements Formula 3, the velocity-constrained probability
// of Optimization Mechanism (1). Peers in the annular region of width dis at
// the area boundary keep the Formula-1 probability; peers in the central
// disk are damped geometrically, because any newly entering peer must cross
// the annulus first (it can move at most DIS = V_max·Δt per round):
//
//	P = (1−α)·α^((dist−Rt)/u)                      dist > Rt
//	P = 1 − α^(Rt/u + 1 − dist/u)                  Rt−dis ≤ dist ≤ Rt
//	P = (1 − α^(dis/u + 1))·α^((Rt−dis−dist)/u)    dist < Rt−dis
//
// The annulus and central branches agree at dist = Rt−dis. When dis ≥ Rt the
// model degenerates to pure gossiping (Formula 1), matching the paper's
// remark that the model "restores to pure gossiping" as DIS grows toward R.
func ForwardProbOpt1(p ProbParams, dist, r, d, age, dis float64) float64 {
	return forwardProbOpt1Rt(p, dist, r, RadiusAt(p, r, d, age), dis)
}

// forwardProbOpt1Rt is Formula 3 given the Formula-2 radius rt (see
// forwardProbRt).
func forwardProbOpt1Rt(p ProbParams, dist, r, rt, dis float64) float64 {
	if rt <= 0 {
		return 0
	}
	if dis >= rt {
		return forwardProbRt(p, dist, r, rt)
	}
	u := p.distUnit(r)
	du := dist / u
	rtu := rt / u
	disu := dis / u
	switch {
	case dist > rt:
		return (1 - p.Alpha) * math.Pow(p.Alpha, du-rtu)
	case dist >= rt-dis:
		return 1 - math.Pow(p.Alpha, rtu+1-du)
	default:
		return (1 - math.Pow(p.Alpha, disu+1)) * math.Pow(p.Alpha, rtu-disu-du)
	}
}

// scorer evaluates Formulas 2 and 1/3 with exp(y·ln α) for math.Pow(α, y) to
// rank cache entries at an overflow (rankOverflow); no forwarding coin is
// flipped on it. dis = +Inf widens Formula 3's annulus to Formula 1's disk.
type scorer struct {
	ProbParams
	lnAlpha, lnBeta, dis float64
}

func newScorer(cfg Config) scorer {
	s := scorer{cfg.Params, math.Log(cfg.Params.Alpha), math.Log(cfg.Params.Beta), math.Inf(1)}
	if cfg.Protocol.usesOpt1() {
		s.dis = cfg.DIS
	}
	return s
}

const scoreGuard, scoreMargin = 1e-9, 1e-9 // see score and rankOverflow

// score is within 1e-12 relative of ForwardProb or ForwardProbOpt1, exactly 0
// for an expired ad as they are, and NaN where that bound fails: R_t/R within
// scoreGuard of 0, where rounding it off turns a positive P into 0; α near 1,
// where 1 − α^y cancels; an exponent ill-conditioned in R_t; a result near the
// denormal range. docs/PERFORMANCE.md, "Overflow ranking", has the budget.
func (s *scorer) score(dist, r, d, age float64) float64 {
	if age > d {
		return 0
	}
	zb, u := (d-age)/s.timeUnit(d)*s.lnBeta, s.distUnit(r)
	rt := (1 - math.Exp(zb)) * r
	du, rtu, p := dist/u, rt/u, 0.0
	if dist > rt {
		p = (1 - s.Alpha) * math.Exp((du-rtu)*s.lnAlpha)
	} else if dist >= rt-s.dis {
		p = 1 - math.Exp((rtu+1-du)*s.lnAlpha)
	} else {
		disu := s.dis / u
		p = (1 - math.Exp((disu+1)*s.lnAlpha)) * math.Exp((rtu-disu-du)*s.lnAlpha)
	}
	if zb > -scoreGuard || s.Alpha > 0.99 || r*-s.lnAlpha > 1e3*u || !(p >= 1e-300) {
		return math.NaN()
	}
	return p
}

// postponeInterval implements Formula 4's increment: the amount of time a
// peer adds to an entry's scheduled gossip time after overhearing a neighbor
// broadcast the same ad. Rules.Postpone is its one caller.
//
//	interval = Δt·e^(p·(1+cos θ)/2)
//
// p ∈ [0,1] is the fraction of the listener's transmission disk covered by
// the sender's, and θ is the angle between the listener's velocity and the
// line from listener to sender. A closer sender (larger p) heading the same
// way (smaller θ) postpones longer, up to Δt·e.
func postponeInterval(roundTime, p, theta float64) float64 {
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	return roundTime * math.Exp(p*(1+math.Cos(theta))/2)
}
