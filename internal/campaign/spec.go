package campaign

import (
	"fmt"
	"math"

	"instantad/internal/geo"
)

// Area is the spatial footprint a campaign advertises into: ads are issued
// from the node nearest the center and propagate with radius Radius — the
// paper's "advertising area" as a control-plane resource.
type Area struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
}

// Center returns the area's center point.
func (a Area) Center() geo.Point { return geo.Point{X: a.X, Y: a.Y} }

// Spec is the JSON campaign description issuers POST to the control plane
// (and the parameter block batch sweeps build internally): where to
// advertise, for how long each ad lives, how fast ads arrive, and how many
// ads the campaign may spend in total.
type Spec struct {
	// Name identifies the campaign to humans; unique within a Store.
	Name string `json:"name"`
	// Area is the advertising area: ads are injected at its center with
	// advertising radius Area.Radius.
	Area Area `json:"area"`
	// Duration is each ad's lifetime D in seconds.
	Duration float64 `json:"duration_s"`
	// Category is the ad type used for interest matching.
	Category string `json:"category"`
	// Text is the ad payload; empty means a generated per-ad placeholder.
	Text string `json:"text,omitempty"`
	// RatePerMin is the ad injection rate in ads per minute.
	RatePerMin float64 `json:"rate_per_min"`
	// Budget caps the total ads the campaign may issue; 0 means bounded by
	// the window alone.
	Budget int `json:"budget,omitempty"`
	// Window bounds the injection period in seconds from activation; 0 means
	// the campaign runs until its budget is spent (and then requires a
	// positive Budget).
	Window float64 `json:"window_s,omitempty"`
}

const maxNameLen = 64

// Validate checks the spec the way the HTTP layer reports it: one message
// per first violation, phrased for the issuer. The float guards accept only
// finite, in-range values, so NaN and ±Inf fail them.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: empty name")
	}
	if len(s.Name) > maxNameLen {
		return fmt.Errorf("campaign: name longer than %d bytes", maxNameLen)
	}
	if !(math.Abs(s.Area.X) < math.Inf(1) && math.Abs(s.Area.Y) < math.Inf(1)) {
		return fmt.Errorf("campaign: area center (%v, %v) must be finite", s.Area.X, s.Area.Y)
	}
	if !(s.Area.Radius > 0 && s.Area.Radius < math.Inf(1)) {
		return fmt.Errorf("campaign: area radius %v must be finite and > 0", s.Area.Radius)
	}
	if !(s.Duration > 0 && s.Duration < math.Inf(1)) {
		return fmt.Errorf("campaign: ad duration %v must be finite and > 0", s.Duration)
	}
	if !(s.RatePerMin > 0 && s.RatePerMin < math.Inf(1)) {
		return fmt.Errorf("campaign: rate %v ads/min must be finite and > 0", s.RatePerMin)
	}
	if s.Budget < 0 {
		return fmt.Errorf("campaign: negative budget %d", s.Budget)
	}
	if !(s.Window >= 0 && s.Window < math.Inf(1)) {
		return fmt.Errorf("campaign: window %v must be finite and >= 0", s.Window)
	}
	if s.Window == 0 && s.Budget == 0 {
		return fmt.Errorf("campaign: unbounded campaign — set a window, a budget, or both")
	}
	return nil
}
