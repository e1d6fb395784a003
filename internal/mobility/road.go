package mobility

import (
	"fmt"

	"instantad/internal/rng"
	"instantad/internal/roadnet"
)

// RoadConfig parameterizes the graph-constrained Road model: vehicles live on
// a road network, repeatedly pick a uniformly random destination intersection,
// drive there along the shortest path edge-by-edge at a per-trip speed drawn
// from mean±delta, optionally pause, and repeat. The urban analogue of Random
// Waypoint — same draw structure, but movement is confined to road geometry.
type RoadConfig struct {
	Graph      *roadnet.Graph // road network to drive on
	SpeedMean  float64        // mean trip speed in m/s
	SpeedDelta float64        // trip speed uniform in [mean−delta, mean+delta]
	Pause      float64        // pause at each destination, seconds (0 for none)
	Horizon    float64        // trajectory length to precompute, seconds
}

func (c RoadConfig) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("mobility: road model needs a road graph")
	}
	if c.Graph.N() < 2 || c.Graph.M() < 1 {
		return fmt.Errorf("mobility: road graph too small (%d intersections, %d roads)",
			c.Graph.N(), c.Graph.M())
	}
	if err := checkSpeed(c.SpeedMean, c.SpeedDelta); err != nil {
		return err
	}
	return checkPauseHorizon(c.Pause, c.Horizon)
}

// MaxSpeed returns the largest speed the model can produce.
func (c RoadConfig) MaxSpeed() float64 { return c.SpeedMean + c.SpeedDelta }

// maxTripRedraws bounds consecutive unreachable/degenerate destination draws
// before the start node is declared effectively disconnected: 64 misses in a
// row happen with probability < 2^-64 when half the graph is reachable.
const maxTripRedraws = 64

// NewRoad builds a road-constrained trajectory from its own RNG stream.
// Construction is deterministic in (cfg, stream state). Errors if the vehicle
// ever fails maxTripRedraws destination draws in a row — a sign the start
// node's component is a vanishing fraction of the graph.
func NewRoad(cfg RoadConfig, s *rng.Stream) (Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Graph
	cur := s.Intn(g.N())
	tr := &trajectory{}
	t := 0.0
	redraws := 0
	for t < cfg.Horizon {
		dst := s.Intn(g.N())
		var path []int
		var ok bool
		if dst != cur {
			path, _, ok = g.ShortestPath(cur, dst)
		}
		if !ok {
			if redraws++; redraws > maxTripRedraws {
				return nil, fmt.Errorf("mobility: road graph unreachable from node %d", cur)
			}
			continue
		}
		redraws = 0
		speed := s.Range(cfg.SpeedMean-cfg.SpeedDelta, cfg.SpeedMean+cfg.SpeedDelta)
		for i := 1; i < len(path); i++ {
			from, to := g.Pos(path[i-1]), g.Pos(path[i])
			dur := from.Dist(to) / speed
			tr.legs = append(tr.legs, leg{t0: t, t1: t + dur, from: from, to: to})
			t += dur
		}
		cur = dst
		if cfg.Pause > 0 && t < cfg.Horizon {
			p := g.Pos(cur)
			tr.legs = append(tr.legs, leg{t0: t, t1: t + cfg.Pause, from: p, to: p})
			t += cfg.Pause
		}
	}
	return tr, nil
}
