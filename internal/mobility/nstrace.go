package mobility

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"

	"instantad/internal/geo"
)

// This file implements import/export of NS-2 movement scripts (the format
// produced by the `setdest` tool the paper used to generate Random Waypoint
// trajectories):
//
//	$node_(0) set X_ 150.00
//	$node_(0) set Y_ 93.00
//	$node_(0) set Z_ 0.00
//	$ns_ at 10.00 "$node_(0) setdest 250.00 100.00 15.00"
//
// Importing recorded NS-2 traces lets experiments replay the exact
// trajectories an NS-2 study used; exporting lets trajectories generated
// here be fed back into NS-2 for cross-validation.

// Leg is one public constant-velocity (or pausing) piece of a trajectory.
type Leg struct {
	T0, T1   float64
	From, To [2]float64 // (x, y); a plain array keeps the wire format flat
}

// Speed returns the leg's constant speed: 0 for a pause or an instantaneous
// leg.
func (l Leg) Speed() float64 {
	dur := l.T1 - l.T0
	if dur <= 0 {
		return 0
	}
	return math.Hypot(l.To[0]-l.From[0], l.To[1]-l.From[1]) / dur
}

// Legs exposes the trajectory's pieces for export and inspection, one per
// pair of adjacent stops.
func (tr *trajectory) Legs() []Leg {
	out := make([]Leg, max(len(tr.stops)-1, 0))
	for i := range out {
		a, b := tr.stops[i], tr.stops[i+1]
		out[i] = Leg{
			T0: a.t, T1: b.t,
			From: [2]float64{a.p.X, a.p.Y},
			To:   [2]float64{b.p.X, b.p.Y},
		}
	}
	return out
}

// LegLister is implemented by models whose trajectory is piecewise linear
// and can therefore be exported losslessly: every model constructed by this
// package except RPGM members, whose position is the clamped sum of two
// trajectories.
type LegLister interface {
	Legs() []Leg
}

// MaxLegSpeed returns the highest speed on any leg of the models'
// trajectories: the true V_max of an imported script, whose speeds no
// scenario parameter states. Models must implement LegLister.
func MaxLegSpeed(models []Model) (float64, error) {
	vmax := 0.0
	for i, m := range models {
		ll, ok := m.(LegLister)
		if !ok {
			return 0, fmt.Errorf("mobility: model %d (%T) has no legs to bound its speed by", i, m)
		}
		for _, l := range ll.Legs() {
			vmax = math.Max(vmax, l.Speed())
		}
	}
	return vmax, nil
}

// ExportNS2 writes the models as one NS-2 movement script; node i in the
// script corresponds to models[i]. Models must implement LegLister. Pause
// legs are implicit: the next setdest command simply fires later.
func ExportNS2(w io.Writer, models []Model) error {
	bw := bufio.NewWriter(w)
	for i, m := range models {
		ll, ok := m.(LegLister)
		if !ok {
			return fmt.Errorf("mobility: model %d (%T) is not exportable", i, m)
		}
		legs := ll.Legs()
		if len(legs) == 0 {
			return fmt.Errorf("mobility: model %d has no trajectory", i)
		}
		first := legs[0]
		// Nine decimals (nanometer / nanosecond grain): setdest's usual six
		// accumulate enough arrival-time error on back-to-back legs (road
		// paths, Manhattan turns) to confuse re-import.
		fmt.Fprintf(bw, "$node_(%d) set X_ %.9f\n", i, first.From[0])
		fmt.Fprintf(bw, "$node_(%d) set Y_ %.9f\n", i, first.From[1])
		fmt.Fprintf(bw, "$node_(%d) set Z_ 0.000000\n", i)
		for _, l := range legs {
			speed := l.Speed()
			if speed == 0 {
				continue // pause: the gap before the next setdest encodes it
			}
			fmt.Fprintf(bw, "$ns_ at %.9f \"$node_(%d) setdest %.9f %.9f %.9f\"\n",
				l.T0, i, l.To[0], l.To[1], speed)
		}
	}
	return bw.Flush()
}

var (
	reSet     = regexp.MustCompile(`^\$node_\((\d+)\)\s+set\s+([XYZ])_\s+([-0-9.eE+]+)\s*$`)
	reSetdest = regexp.MustCompile(`^\$ns_\s+at\s+([-0-9.eE+]+)\s+"\$node_\((\d+)\)\s+setdest\s+([-0-9.eE+]+)\s+([-0-9.eE+]+)\s+([-0-9.eE+]+)"\s*$`)
)

// ParseNS2 reads an NS-2 movement script and reconstructs one Model per
// node, keyed by node index. Nodes hold their position until their first
// setdest fires and after their last destination is reached, matching NS-2
// semantics.
func ParseNS2(r io.Reader) (map[int]Model, error) {
	type move struct {
		at, x, y, speed float64
	}
	type nodeState struct {
		x, y  float64
		moves []move
	}
	nodes := make(map[int]*nodeState)
	get := func(id int) *nodeState {
		st, ok := nodes[id]
		if !ok {
			st = &nodeState{}
			nodes[id] = st
		}
		return st
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		if m := reSet.FindStringSubmatch(text); m != nil {
			id, _ := strconv.Atoi(m[1])
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("mobility: line %d: %w", line, err)
			}
			switch m[2] {
			case "X":
				get(id).x = v
			case "Y":
				get(id).y = v
			}
			continue
		}
		if m := reSetdest.FindStringSubmatch(text); m != nil {
			id, _ := strconv.Atoi(m[2])
			vals := make([]float64, 4)
			for i, idx := range []int{1, 3, 4, 5} {
				v, err := strconv.ParseFloat(m[idx], 64)
				if err != nil {
					return nil, fmt.Errorf("mobility: line %d: %w", line, err)
				}
				vals[i] = v
			}
			st := get(id)
			st.moves = append(st.moves, move{at: vals[0], x: vals[1], y: vals[2], speed: vals[3]})
			continue
		}
		return nil, fmt.Errorf("mobility: line %d: unrecognized statement %q", line, text)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mobility: empty movement script")
	}

	out := make(map[int]Model, len(nodes))
	for id, st := range nodes {
		sort.SliceStable(st.moves, func(i, j int) bool { return st.moves[i].at < st.moves[j].at })
		tr := &trajectory{}
		cur := geo.Point{X: st.x, Y: st.y}
		t := 0.0
		for k, mv := range st.moves {
			// Arrival times are reconstructed from rounded coordinates and
			// speeds, so back-to-back legs land within the serialization
			// grain of the previous arrival; genuine overlaps are far larger.
			if mv.at < t-1e-4 {
				return nil, fmt.Errorf("mobility: node %d: setdest %d at %v fires before the previous move ends (%v)", id, k, mv.at, t)
			}
			if mv.at > t {
				// Pause at the current position until the command fires.
				tr.add(t, mv.at, cur, cur)
				t = mv.at
			}
			if mv.speed <= 0 {
				return nil, fmt.Errorf("mobility: node %d: non-positive speed %v", id, mv.speed)
			}
			dst := geo.Point{X: mv.x, Y: mv.y}
			dist := math.Hypot(dst.X-cur.X, dst.Y-cur.Y)
			if dist == 0 {
				continue
			}
			dur := dist / mv.speed
			tr.add(t, t+dur, cur, dst)
			t += dur
			cur = dst
		}
		if len(tr.stops) == 0 {
			// A node that never moves: a static trajectory at its position.
			tr.add(0, 1e18, cur, cur)
		}
		out[id] = tr
	}
	return out, nil
}
