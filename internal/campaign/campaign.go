// Package campaign layers a continuous advertising workload over a single
// simulation: many issuers scattered across the field inject ads as a
// Poisson process over categories of varying popularity, each ad living its
// own R/D life cycle. This is the paper's real deployment story — "many
// different shops, individuals issuing ads at different places" — rather
// than the single-ad microbenchmarks of the evaluation section.
//
// The campaign aggregates per-category and overall delivery quality,
// traffic and cache pressure, giving a capacity-planning view: how many
// concurrent instant ads can a neighbourhood's airwaves and caches carry
// before quality degrades.
package campaign

import (
	"fmt"
	"math"
	"sort"

	"instantad/internal/experiment"
	"instantad/internal/geo"
	"instantad/internal/obs"
	"instantad/internal/workload"
)

// Config parameterizes a campaign.
type Config struct {
	// ArrivalRate is the mean ad injection rate in ads per second (Poisson
	// process). Typical instant-ad workloads are a few ads per minute.
	ArrivalRate float64
	// Start and End bound the injection window in simulation time. Ads keep
	// living after End; run the scenario long enough to cover the last life
	// cycle.
	Start, End float64
	// R and D are each ad's initial propagation parameters; RJitter and
	// DJitter add uniform ±jitter so ads differ (both default to 0).
	R, D             float64
	RJitter, DJitter float64
	// CategorySkew is the Zipf exponent over workload.Categories.
	CategorySkew float64
	// Interests configures the peer interest assignment.
	Interests workload.InterestConfig
}

// Validate checks the configuration. Every guard accepts only finite,
// in-range values, so NaN and ±Inf fail it: an infinite ArrivalRate makes
// every inter-arrival draw 0 and the arrival loop never ends, and a NaN skew
// makes every Zipf draw the last category.
func (c Config) Validate() error {
	if !(c.ArrivalRate > 0 && c.ArrivalRate < math.Inf(1)) {
		return fmt.Errorf("campaign: arrival rate %v must be finite and > 0", c.ArrivalRate)
	}
	if !(c.Start >= 0 && c.Start < c.End && c.End < math.Inf(1)) {
		return fmt.Errorf("campaign: bad injection window [%v, %v]", c.Start, c.End)
	}
	if !(c.R > 0 && c.R < math.Inf(1) && c.D > 0 && c.D < math.Inf(1)) {
		return fmt.Errorf("campaign: bad ad parameters R=%v D=%v", c.R, c.D)
	}
	if !(c.RJitter >= 0 && c.RJitter < c.R && c.DJitter >= 0 && c.DJitter < c.D) {
		return fmt.Errorf("campaign: jitter outside [0, value)")
	}
	if !(c.CategorySkew >= 0 && c.CategorySkew < math.Inf(1)) {
		return fmt.Errorf("campaign: category skew %v must be finite and >= 0", c.CategorySkew)
	}
	if !(c.Interests.Skew >= 0 && c.Interests.Skew < math.Inf(1)) {
		return fmt.Errorf("campaign: interest skew %v must be finite and >= 0", c.Interests.Skew)
	}
	return nil
}

// CategoryReport aggregates every ad of one category.
type CategoryReport struct {
	Category     string
	Ads          int
	DeliveryRate float64 // mean percent across the category's ads
	Messages     uint64
}

// Report is the campaign outcome.
type Report struct {
	AdsIssued     int
	MeanDelivery  float64 // mean per-ad delivery rate, percent
	WorstDelivery float64
	TotalMessages uint64
	TotalBytes    uint64
	Evictions     uint64
	ByCategory    []CategoryReport // sorted by category name
	// Metrics freezes the run's sim_* registry at exit (see
	// experiment.Sim.Registry); nil only for zero-value Reports.
	Metrics *obs.Snapshot
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("campaign: %d ads, mean delivery %.1f%% (worst %.1f%%), %d messages, %d evictions",
		r.AdsIssued, r.MeanDelivery, r.WorstDelivery, r.TotalMessages, r.Evictions)
}

// Run executes the campaign over the scenario. Peers receive interests per
// cfg.Interests; ads arrive Poisson at uniformly random field positions.
func Run(sc experiment.Scenario, cfg Config) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	if cfg.End+cfg.D > sc.SimTime {
		return Report{}, fmt.Errorf("campaign: sim time %v too short for last life cycle ending ≈%v",
			sc.SimTime, cfg.End+cfg.D)
	}
	sm, err := sc.Build()
	if err != nil {
		return Report{}, err
	}
	rnd := sm.Rand("campaign")
	workload.AssignInterests(sm.Net, cfg.Interests, sm.Rand("interests"))

	// Pre-draw the Poisson arrival schedule.
	var handles []*experiment.AdHandle
	var categories []string
	seq := 0
	for t := cfg.Start + rnd.Exp(cfg.ArrivalRate); t < cfg.End; t += rnd.Exp(cfg.ArrivalRate) {
		at := geo.Point{
			X: rnd.Range(0, sc.FieldW),
			Y: rnd.Range(0, sc.FieldH),
		}
		r := cfg.R + rnd.Range(-cfg.RJitter, cfg.RJitter)
		d := cfg.D + rnd.Range(-cfg.DJitter, cfg.DJitter)
		spec := workload.RandomSpec(rnd, seq, r, d, cfg.CategorySkew)
		handles = append(handles, sm.ScheduleAd(t, at, spec))
		categories = append(categories, spec.Category)
		seq++
	}
	if len(handles) == 0 {
		return Report{}, fmt.Errorf("campaign: arrival process produced no ads in [%v, %v]", cfg.Start, cfg.End)
	}
	sm.Engine.Run(sc.SimTime)

	rep := Report{AdsIssued: len(handles), WorstDelivery: 101}
	byCat := make(map[string]*CategoryReport)
	for i, h := range handles {
		if h.Err != nil {
			return Report{}, fmt.Errorf("campaign ad %d: %w", i, h.Err)
		}
		ar, err := sm.Metrics.Report(h.Ad.ID)
		if err != nil {
			return Report{}, err
		}
		rep.MeanDelivery += ar.DeliveryRate
		if ar.DeliveryRate < rep.WorstDelivery {
			rep.WorstDelivery = ar.DeliveryRate
		}
		cr := byCat[categories[i]]
		if cr == nil {
			cr = &CategoryReport{Category: categories[i]}
			byCat[categories[i]] = cr
		}
		cr.Ads++
		cr.DeliveryRate += ar.DeliveryRate
		cr.Messages += ar.Messages
	}
	rep.MeanDelivery /= float64(len(handles))
	rep.TotalMessages = sm.Metrics.TotalMessages()
	rep.TotalBytes = sm.Metrics.TotalBytes()
	rep.Evictions = sm.Metrics.Evictions()
	snap := sm.Registry.Snapshot()
	rep.Metrics = &snap
	for _, cr := range byCat {
		cr.DeliveryRate /= float64(cr.Ads)
		rep.ByCategory = append(rep.ByCategory, *cr)
	}
	sort.Slice(rep.ByCategory, func(i, j int) bool {
		return rep.ByCategory[i].Category < rep.ByCategory[j].Category
	})
	return rep, nil
}

// FigCapacity renders the capacity curve as a figure: mean and worst per-ad
// delivery plus evictions versus offered load (ads/minute).
func FigCapacity(sc experiment.Scenario, base Config, adsPerMinute []float64) (experiment.Figure, error) {
	reports, err := Sweep(sc, base, adsPerMinute)
	if err != nil {
		return experiment.Figure{}, err
	}
	f := experiment.Figure{
		ID: "capacity", Title: "Delivery vs offered ad load",
		XLabel: "Ads per Minute", YLabel: "Delivery (%) / Evictions",
	}
	mean := experiment.Series{Label: "mean delivery (%)"}
	worst := experiment.Series{Label: "worst delivery (%)"}
	evict := experiment.Series{Label: "evictions"}
	for i, rep := range reports {
		x := adsPerMinute[i]
		mean.X = append(mean.X, x)
		mean.Y = append(mean.Y, rep.MeanDelivery)
		worst.X = append(worst.X, x)
		worst.Y = append(worst.Y, rep.WorstDelivery)
		evict.X = append(evict.X, x)
		evict.Y = append(evict.Y, float64(rep.Evictions))
	}
	f.Series = []experiment.Series{mean, worst, evict}
	return f, nil
}

// Sweep runs the campaign at several arrival rates (ads/minute for
// readability), each on a fresh simulation, and reports delivery vs load —
// the capacity curve.
func Sweep(sc experiment.Scenario, base Config, adsPerMinute []float64) ([]Report, error) {
	if len(adsPerMinute) == 0 {
		return nil, fmt.Errorf("campaign: empty sweep")
	}
	out := make([]Report, 0, len(adsPerMinute))
	for _, apm := range adsPerMinute {
		cfg := base
		cfg.ArrivalRate = apm / 60
		rep, err := Run(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("at %v ads/min: %w", apm, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
