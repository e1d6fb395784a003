package mobility

import (
	"fmt"
	"math"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

// RPGMConfig parameterizes the Reference Point Group Mobility model: a
// group's reference point performs Random Waypoint across the field while
// each member wanders locally around the reference — shoppers drifting
// through a mall together, a family walking a street market. Group mobility
// correlates peer positions, which stresses the gossip protocols very
// differently from independent waypoint motion (clusters stay connected
// internally but meet other clusters rarely).
type RPGMConfig struct {
	Field geo.Rect
	// GroupSize is the number of members per group, ≥ 1.
	GroupSize int
	// GroupRadius bounds each member's offset from the reference point.
	GroupRadius float64
	// SpeedMean/SpeedDelta drive the group reference (Random Waypoint).
	SpeedMean, SpeedDelta float64
	// MemberSpeed is the local wander speed around the reference.
	MemberSpeed float64
	// Pause is the reference's waypoint pause.
	Pause   float64
	Horizon float64
}

func (c RPGMConfig) validate() error {
	if err := checkField(c.Field); err != nil {
		return err
	}
	if c.GroupSize < 1 {
		return fmt.Errorf("mobility: group size %d < 1", c.GroupSize)
	}
	if !(finite(c.GroupRadius) && c.GroupRadius > 0) {
		return fmt.Errorf("mobility: group radius %v, want finite and > 0", c.GroupRadius)
	}
	if err := checkSpeed(c.SpeedMean, c.SpeedDelta); err != nil {
		return fmt.Errorf("%w (group reference)", err)
	}
	if !(finite(c.MemberSpeed) && c.MemberSpeed > 0) {
		return fmt.Errorf("mobility: member speed %v, want finite and > 0", c.MemberSpeed)
	}
	return checkPauseHorizon(c.Pause, c.Horizon)
}

// MaxSpeed returns the largest speed a member can reach: reference plus
// local wander.
func (c RPGMConfig) MaxSpeed() float64 { return c.SpeedMean + c.SpeedDelta + c.MemberSpeed }

// rpgmMember composes the shared reference trajectory with a private local
// offset trajectory, clamped to the field.
type rpgmMember struct {
	ref    Model
	offset Model // wanders within the centered offset box
	field  geo.Rect
	center geo.Point // offset trajectories are built in a box around this
}

// Position implements Model.
func (m rpgmMember) Position(t float64) geo.Point {
	ref := m.ref.Position(t)
	off := m.offset.Position(t).Sub(m.center)
	return m.field.Clamp(ref.Add(off))
}

// Velocity implements Model. Clamping at the field edge is ignored — the
// approximation only feeds the postponement angle, never positions.
func (m rpgmMember) Velocity(t float64) geo.Vec {
	return m.ref.Velocity(t).Add(m.offset.Velocity(t))
}

// NewRPGMGroup builds one group of cfg.GroupSize members sharing a fresh
// reference trajectory. Call it repeatedly (with split streams) to populate
// a field with many groups.
func NewRPGMGroup(cfg RPGMConfig, s *rng.Stream) ([]Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ref, err := NewRandomWaypoint(RandomWaypointConfig{
		Field:      cfg.Field,
		SpeedMean:  cfg.SpeedMean,
		SpeedDelta: cfg.SpeedDelta,
		Pause:      cfg.Pause,
		Horizon:    cfg.Horizon,
	}, s.Split("reference"))
	if err != nil {
		return nil, err
	}
	// Offsets live in a box inscribed in the group-radius disk, so the
	// member-to-reference distance never exceeds GroupRadius.
	half := cfg.GroupRadius / math.Sqrt2
	box := geo.Rect{
		Min: geo.Point{X: 0, Y: 0},
		Max: geo.Point{X: 2 * half, Y: 2 * half},
	}
	center := box.Center()
	members := make([]Model, cfg.GroupSize)
	for i := range members {
		delta := cfg.MemberSpeed * 0.3
		if delta >= cfg.MemberSpeed {
			delta = cfg.MemberSpeed / 2
		}
		off, err := NewRandomWaypoint(RandomWaypointConfig{
			Field:      box,
			SpeedMean:  cfg.MemberSpeed,
			SpeedDelta: delta,
			Pause:      cfg.Pause / 2,
			Horizon:    cfg.Horizon,
		}, s.SplitIndex("member", i))
		if err != nil {
			return nil, err
		}
		members[i] = rpgmMember{ref: ref, offset: off, field: cfg.Field, center: center}
	}
	return members, nil
}

// NewRPGMPopulation builds n members grouped into ⌈n/GroupSize⌉ groups
// (the last group may be smaller).
func NewRPGMPopulation(n int, cfg RPGMConfig, s *rng.Stream) ([]Model, error) {
	if n < 1 {
		return nil, fmt.Errorf("mobility: population %d < 1", n)
	}
	out := make([]Model, 0, n)
	for g := 0; len(out) < n; g++ {
		gcfg := cfg
		if remaining := n - len(out); remaining < gcfg.GroupSize {
			gcfg.GroupSize = remaining
		}
		group, err := NewRPGMGroup(gcfg, s.SplitIndex("group", g))
		if err != nil {
			return nil, err
		}
		out = append(out, group...)
	}
	return out, nil
}
