package metrics

import (
	"math"
	"testing"

	"instantad/internal/ads"
	"instantad/internal/core"
	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/radio"
	"instantad/internal/rng"
	"instantad/internal/sim"
)

// BenchmarkCollectorSample measures one sample tick at city scale: 30 000
// Random Waypoint peers at the paper's density on a 15 km field, 30 live ads
// spread over it, and a grid snapshot one refresh period old, as the channel
// keeps it while anything broadcasts. The tick must cost what can cross the
// 30 circles, not ads × peers, and allocate nothing in steady state (CI
// guards the allocs/op column).
func BenchmarkCollectorSample(b *testing.B) {
	const n, side, nAds = 30000, 15000, 30
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Field: geo.NewRect(side, side), SpeedMean: 10, SpeedDelta: 5, Pause: 10, Horizon: 2000,
		}, rng.New(42).SplitIndex("mobility", i))
		if err != nil {
			b.Fatal(err)
		}
		models[i] = m
	}
	s := sim.New()
	cfg := radio.DefaultConfig()
	cfg.Range = 125
	ch, err := radio.New(s, cfg, models, func(int, radio.Frame) {}, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	col := NewCollector(s, ch, core.ProbParams{Alpha: 0.5, Beta: 0.5}, 1)
	// The ads never expire within the run: D is far beyond any b.N ticks.
	cols := int(math.Ceil(math.Sqrt(nAds)))
	for k := 0; k < nAds; k++ {
		col.OnIssue(0, &ads.Advertisement{
			ID:     ads.ID{Issuer: 0, Seq: uint32(k)},
			Origin: geo.Point{X: (float64(k%cols) + 0.5) * side / float64(cols), Y: (float64(k/cols) + 0.5) * side / float64(cols)},
			R:      500, D: 1e6,
		}, 0)
	}
	// tick advances one second, which fires the collector's sampler, and then
	// takes the next snapshot outside the timed region.
	tick := func() {
		s.Run(s.Now() + 1)
		b.StopTimer()
		ch.RefreshGrid()
		b.StartTimer()
	}
	for i := 0; i < 5; i++ { // grow the candidate scratch to its steady size
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}
