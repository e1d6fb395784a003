// Package mobility provides the node movement models for the simulator.
//
// The paper evaluates with the Random Waypoint model (the NS-2 setdest
// default): each peer starts at a uniformly random position, picks a
// uniformly random destination, moves there in a straight line at a constant
// speed drawn from mean±delta, pauses, and repeats. This package also
// provides Random Walk, Manhattan-grid and Static models used in ablations.
//
// All models precompute a piecewise-linear trajectory up to a time horizon,
// so Position and Velocity are exact analytic queries at any instant — there
// is no tick quantization, and querying is O(log legs). A caller that asks
// about the same node at many nearby instants can fetch the constant-velocity
// Piece in force once (PieceSource) and evaluate that instead: it answers
// bit for bit what Position and Velocity would.
package mobility

import (
	"fmt"
	"math"
	"sort"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

// Model yields a node's exact position and velocity at any time within the
// trajectory horizon. Implementations are safe for concurrent readers after
// construction.
type Model interface {
	// Position returns the node position at time t. Times before 0 return the
	// initial position; times at or beyond the trajectory's end return the
	// final position.
	Position(t float64) geo.Point
	// Velocity returns the instantaneous velocity at time t (zero while
	// pausing, before 0, and beyond the horizon).
	Velocity(t float64) geo.Vec
}

// leg is one constant-velocity (or pausing) piece of a trajectory.
type leg struct {
	t0, t1   float64
	from, to geo.Point
}

func (l leg) velocity() geo.Vec {
	dt := l.t1 - l.t0
	if dt <= 0 {
		return geo.Vec{}
	}
	return l.to.Sub(l.from).Scale(1 / dt)
}

// Piece is one constant-velocity stretch of a model's motion: for every t
// with T0 <= t < T1, At(t) and Vel are bit for bit what the model's Position
// and Velocity return. Coordinates are therefore monotone in t across a
// piece, rounding included: t ↦ (t−T0)/(T1−T0) ↦ From + (To−From)·f is a
// chain of monotone floating-point steps. The zero Piece covers no instant.
type Piece struct {
	T0, T1   float64
	From, To geo.Point
	Vel      geo.Vec
}

// Covers reports whether the piece answers for time t.
func (p *Piece) Covers(t float64) bool { return t >= p.T0 && t < p.T1 }

// At returns the position at a time the piece covers.
func (p *Piece) At(t float64) geo.Point {
	return p.From.Lerp(p.To, (t-p.T0)/(p.T1-p.T0))
}

// PieceSource is implemented by models whose motion is piecewise linear.
// PieceAt returns the piece covering t, or one that does not cover t when
// the model has none there (before a trajectory's first leg, from its end
// on) or ever (an RPGM member clamps the sum of two trajectories to the
// field): such instants are answered by Position and Velocity alone.
type PieceSource interface {
	PieceAt(t float64) Piece
}

// trajectory is the shared piecewise-linear implementation behind every
// model in this package.
type trajectory struct {
	legs []leg
}

func (tr *trajectory) locate(t float64) int {
	// Binary search for the leg containing t.
	i := sort.Search(len(tr.legs), func(i int) bool { return tr.legs[i].t1 > t })
	if i >= len(tr.legs) {
		return len(tr.legs) - 1
	}
	return i
}

// Position implements Model.
func (tr *trajectory) Position(t float64) geo.Point {
	if len(tr.legs) == 0 {
		return geo.Point{}
	}
	// Strictly before: at t == first.t0 the leg's own expression yields
	// first.from, and a leg then answers for all of [t0, t1), which is the
	// interval PieceAt promises.
	first := tr.legs[0]
	if t < first.t0 {
		return first.from
	}
	last := tr.legs[len(tr.legs)-1]
	if t >= last.t1 {
		return last.to
	}
	l := tr.legs[tr.locate(t)]
	if l.t1 == l.t0 {
		return l.to
	}
	f := (t - l.t0) / (l.t1 - l.t0)
	return l.from.Lerp(l.to, f)
}

// PieceAt implements PieceSource: the leg locate picks for t, as long as t
// lies inside it. Legs are appended end to start, so they neither overlap
// nor leave the gaps for which locate would pick the following leg.
func (tr *trajectory) PieceAt(t float64) Piece {
	if len(tr.legs) == 0 || t >= tr.legs[len(tr.legs)-1].t1 {
		return Piece{}
	}
	l := tr.legs[tr.locate(t)]
	if t < l.t0 {
		return Piece{}
	}
	return Piece{T0: l.t0, T1: l.t1, From: l.from, To: l.to, Vel: l.velocity()}
}

// Velocity implements Model.
func (tr *trajectory) Velocity(t float64) geo.Vec {
	if len(tr.legs) == 0 {
		return geo.Vec{}
	}
	if t < tr.legs[0].t0 || t >= tr.legs[len(tr.legs)-1].t1 {
		return geo.Vec{}
	}
	return tr.legs[tr.locate(t)].velocity()
}

// RandomWaypointConfig parameterizes the Random Waypoint model.
type RandomWaypointConfig struct {
	Field      geo.Rect // movement area
	SpeedMean  float64  // mean leg speed in m/s
	SpeedDelta float64  // leg speed uniform in [mean−delta, mean+delta]
	Pause      float64  // pause at each waypoint, seconds (0 for none)
	Horizon    float64  // trajectory length to precompute, seconds
}

func (c RandomWaypointConfig) validate() error {
	if err := checkField(c.Field); err != nil {
		return err
	}
	if err := checkSpeed(c.SpeedMean, c.SpeedDelta); err != nil {
		return err
	}
	return checkPauseHorizon(c.Pause, c.Horizon)
}

// finite reports whether every x is a number other than ±Inf.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// The checks below are written in positive form — accept only what is
// finite and in range — so NaN, which fails every comparison, is rejected
// rather than waved through; a NaN or infinite horizon would never end a
// trajectory builder's loop.

// checkField accepts a rectangle with finite corners and positive, finite
// width and height.
func checkField(r geo.Rect) error {
	if !(finite(r.Min.X, r.Min.Y, r.Max.X, r.Max.Y, r.W(), r.H()) && r.W() > 0 && r.H() > 0) {
		return fmt.Errorf("mobility: field %+v is not a finite, non-empty rectangle", r)
	}
	return nil
}

// checkSpeed accepts a finite speed range mean ± delta with 0 ≤ delta < mean.
func checkSpeed(mean, delta float64) error {
	if !(finite(mean, delta) && mean > 0 && delta >= 0 && delta < mean) {
		return fmt.Errorf("mobility: speed %v±%v, want finite with 0 ≤ delta < mean", mean, delta)
	}
	return nil
}

// checkPauseHorizon accepts a finite pause ≥ 0 and a finite horizon > 0.
func checkPauseHorizon(pause, horizon float64) error {
	if !(finite(pause) && pause >= 0) {
		return fmt.Errorf("mobility: pause %v, want finite and ≥ 0", pause)
	}
	if !(finite(horizon) && horizon > 0) {
		return fmt.Errorf("mobility: horizon %v, want finite and > 0", horizon)
	}
	return nil
}

// MaxSpeed returns the largest speed the model can produce, the V_max of the
// paper's Optimization Mechanism (1).
func (c RandomWaypointConfig) MaxSpeed() float64 { return c.SpeedMean + c.SpeedDelta }

func uniformPoint(r geo.Rect, s *rng.Stream) geo.Point {
	return geo.Point{
		X: s.Range(r.Min.X, r.Max.X),
		Y: s.Range(r.Min.Y, r.Max.Y),
	}
}

// NewRandomWaypoint builds a Random Waypoint trajectory from its own RNG
// stream. Construction is deterministic in (cfg, stream state).
func NewRandomWaypoint(cfg RandomWaypointConfig, s *rng.Stream) (Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr := &trajectory{}
	pos := uniformPoint(cfg.Field, s)
	t := 0.0
	for t < cfg.Horizon {
		dst := uniformPoint(cfg.Field, s)
		speed := s.Range(cfg.SpeedMean-cfg.SpeedDelta, cfg.SpeedMean+cfg.SpeedDelta)
		dist := pos.Dist(dst)
		if dist < 1e-9 {
			continue // degenerate waypoint, redraw
		}
		dur := dist / speed
		tr.legs = append(tr.legs, leg{t0: t, t1: t + dur, from: pos, to: dst})
		t += dur
		pos = dst
		if cfg.Pause > 0 && t < cfg.Horizon {
			tr.legs = append(tr.legs, leg{t0: t, t1: t + cfg.Pause, from: pos, to: pos})
			t += cfg.Pause
		}
	}
	return tr, nil
}

// RandomWalkConfig parameterizes the Random Walk model: the node repeatedly
// picks a uniformly random direction and speed and follows it for Epoch
// seconds, reflecting off the field boundary.
type RandomWalkConfig struct {
	Field      geo.Rect
	SpeedMean  float64
	SpeedDelta float64
	Epoch      float64 // duration of each straight-line segment
	Horizon    float64
}

func (c RandomWalkConfig) validate() error {
	if err := checkField(c.Field); err != nil {
		return err
	}
	if err := checkSpeed(c.SpeedMean, c.SpeedDelta); err != nil {
		return err
	}
	if !(finite(c.Epoch) && c.Epoch > 0) {
		return fmt.Errorf("mobility: epoch %v, want finite and > 0", c.Epoch)
	}
	return checkPauseHorizon(0, c.Horizon)
}

// MaxSpeed returns the largest speed the model can produce.
func (c RandomWalkConfig) MaxSpeed() float64 { return c.SpeedMean + c.SpeedDelta }

// NewRandomWalk builds a Random Walk trajectory.
func NewRandomWalk(cfg RandomWalkConfig, s *rng.Stream) (Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr := &trajectory{}
	pos := uniformPoint(cfg.Field, s)
	t := 0.0
	for t < cfg.Horizon {
		ang := s.Range(0, 2*math.Pi)
		speed := s.Range(cfg.SpeedMean-cfg.SpeedDelta, cfg.SpeedMean+cfg.SpeedDelta)
		dir := geo.Vec{X: speed * math.Cos(ang), Y: speed * math.Sin(ang)}
		remaining := cfg.Epoch
		// Walk the epoch, splitting the leg at each boundary reflection.
		for remaining > 1e-9 && t < cfg.Horizon {
			hitT, nx, ny := timeToBoundary(pos, dir, cfg.Field)
			dur := remaining
			if hitT < dur {
				dur = hitT
			}
			end := pos.Add(dir.Scale(dur))
			end = cfg.Field.Clamp(end) // guard fp drift
			tr.legs = append(tr.legs, leg{t0: t, t1: t + dur, from: pos, to: end})
			t += dur
			remaining -= dur
			pos = end
			if hitT <= dur { // reflected
				if nx {
					dir.X = -dir.X
				}
				if ny {
					dir.Y = -dir.Y
				}
			}
		}
	}
	return tr, nil
}

// timeToBoundary returns the time until the point moving with velocity dir
// exits rect, and which axis it hits (for reflection). Infinite when dir is
// zero on both axes.
func timeToBoundary(p geo.Point, dir geo.Vec, r geo.Rect) (t float64, hitX, hitY bool) {
	const inf = 1e18
	tx, ty := inf, inf
	if dir.X > 0 {
		tx = (r.Max.X - p.X) / dir.X
	} else if dir.X < 0 {
		tx = (r.Min.X - p.X) / dir.X
	}
	if dir.Y > 0 {
		ty = (r.Max.Y - p.Y) / dir.Y
	} else if dir.Y < 0 {
		ty = (r.Min.Y - p.Y) / dir.Y
	}
	if tx < 0 {
		tx = 0
	}
	if ty < 0 {
		ty = 0
	}
	switch {
	case tx < ty:
		return tx, true, false
	case ty < tx:
		return ty, false, true
	default:
		return tx, tx < inf, ty < inf
	}
}

// ManhattanConfig parameterizes a simple Manhattan-grid model: nodes move
// along the lines of a BlockSize-spaced street grid; at each intersection
// they continue straight with probability 0.5 or turn left/right with
// probability 0.25 each, re-drawing the speed per street segment.
type ManhattanConfig struct {
	Field      geo.Rect
	BlockSize  float64 // street spacing in meters
	SpeedMean  float64
	SpeedDelta float64
	Horizon    float64
}

func (c ManhattanConfig) validate() error {
	if err := checkField(c.Field); err != nil {
		return err
	}
	if !(c.BlockSize > 0 && c.BlockSize <= c.Field.W() && c.BlockSize <= c.Field.H()) {
		return fmt.Errorf("mobility: block size %v outside field", c.BlockSize)
	}
	if err := checkSpeed(c.SpeedMean, c.SpeedDelta); err != nil {
		return err
	}
	return checkPauseHorizon(0, c.Horizon)
}

// MaxSpeed returns the largest speed the model can produce.
func (c ManhattanConfig) MaxSpeed() float64 { return c.SpeedMean + c.SpeedDelta }

// NewManhattan builds a Manhattan-grid trajectory.
func NewManhattan(cfg ManhattanConfig, s *rng.Stream) (Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nx := int(cfg.Field.W() / cfg.BlockSize)
	ny := int(cfg.Field.H() / cfg.BlockSize)
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("mobility: field too small for block size")
	}
	// Current intersection in grid coordinates and heading (dx, dy ∈ {-1,0,1},
	// exactly one non-zero).
	ix, iy := s.Intn(nx+1), s.Intn(ny+1)
	headings := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	h := headings[s.Intn(4)]
	point := func(ix, iy int) geo.Point {
		return geo.Point{
			X: cfg.Field.Min.X + float64(ix)*cfg.BlockSize,
			Y: cfg.Field.Min.Y + float64(iy)*cfg.BlockSize,
		}
	}
	tr := &trajectory{}
	t := 0.0
	for t < cfg.Horizon {
		// Turn or go straight; always turn if straight would leave the grid.
		for attempts := 0; ; attempts++ {
			jx, jy := ix+h[0], iy+h[1]
			if jx >= 0 && jx <= nx && jy >= 0 && jy <= ny {
				break
			}
			h = headings[s.Intn(4)]
			if attempts > 8 { // corner: reverse is always valid
				h = [2]int{-h[0], -h[1]}
			}
		}
		jx, jy := ix+h[0], iy+h[1]
		speed := s.Range(cfg.SpeedMean-cfg.SpeedDelta, cfg.SpeedMean+cfg.SpeedDelta)
		from, to := point(ix, iy), point(jx, jy)
		dur := from.Dist(to) / speed
		tr.legs = append(tr.legs, leg{t0: t, t1: t + dur, from: from, to: to})
		t += dur
		ix, iy = jx, jy
		// Heading choice for the next block.
		r := s.Float64()
		switch {
		case r < 0.5:
			// keep heading
		case r < 0.75:
			h = [2]int{-h[1], h[0]} // left
		default:
			h = [2]int{h[1], -h[0]} // right
		}
	}
	return tr, nil
}

// NewStatic returns a model that never moves from p.
func NewStatic(p geo.Point) Model {
	return &trajectory{legs: []leg{{t0: 0, t1: 1e18, from: p, to: p}}}
}
