package mobility

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// cornerTrajectory is built by hand: the zero-length legs a walk leaves
// behind when it reflects off a corner, twice over.
func cornerTrajectory() *trajectory {
	tr := &trajectory{}
	tr.add(0, 2, geo.Point{X: 1, Y: 1}, geo.Point{X: 5, Y: 1})
	tr.add(2, 2, geo.Point{X: 5, Y: 1}, geo.Point{X: 5, Y: 1})
	tr.add(2, 2, geo.Point{X: 5, Y: 1}, geo.Point{X: 5, Y: 1})
	tr.add(2, 7, geo.Point{X: 5, Y: 1}, geo.Point{X: 5, Y: 9})
	return tr
}

// TestPieceAnswersForTheModel is the contract the radio's piece table leans
// on: a Piece fetched at any instant answers Position and Velocity, bit for
// bit, at every instant it claims to cover, and Vel() is also what the leg
// reference (reference_test.go) computes there — fetched once and asked about
// earlier and later times in no particular order, which is how the channel
// uses it. The instants are the ones where an interval's end could be off by
// one: each leg boundary and its two neighbouring floats, before the first
// leg, from the trajectory's end on, inside pauses and zero-length legs.
func TestPieceAnswersForTheModel(t *testing.T) {
	var script strings.Builder
	script.WriteString("$node_(0) set X_ -40.5\n$node_(0) set Y_ 12.25\n$node_(0) set Z_ 0\n")
	script.WriteString("$ns_ at 3.5 \"$node_(0) setdest 100.0 -80.0 7.5\"\n")
	script.WriteString("$ns_ at 60.0 \"$node_(0) setdest -300.0 -80.0 12.0\"\n")
	parsed, err := ParseNS2(strings.NewReader(script.String()))
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]Model{
		"static":           NewStatic(geo.Point{X: 3, Y: -4}),
		"ns2":              parsed[0],
		"zero-length-legs": cornerTrajectory(),
	}
	must := func(m Model, err error) Model {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	models["random-waypoint"] = must(NewRandomWaypoint(rwpCfg(), rng.New(3)))
	models["random-walk"] = must(NewRandomWalk(RandomWalkConfig{
		Field: geo.NewRect(60, 40), SpeedMean: 10, SpeedDelta: 5, Epoch: 20, Horizon: 400}, rng.New(4)))
	models["manhattan"] = must(NewManhattan(ManhattanConfig{
		Field: geo.NewRect(1000, 1000), BlockSize: 100, SpeedMean: 10, SpeedDelta: 5, Horizon: 400}, rng.New(5)))
	models["road"] = must(NewRoad(RoadConfig{
		Graph: roadTestGraph(t), SpeedMean: 10, SpeedDelta: 5, Pause: 2, Horizon: 400}, rng.New(6)))

	for name, m := range models {
		legs := m.(LegLister).Legs()
		ref := refFromLegs(legs)
		first, last := legs[0].T0, legs[len(legs)-1].T1
		times := probeTimes(legs, 1)
		rand.New(rand.NewSource(1)).Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })

		src := m.(PieceSource)
		pieces := make([]Piece, len(times))
		for i, at := range times {
			pieces[i] = src.PieceAt(at)
			// A trajectory's legs are contiguous, so it has a piece exactly
			// from its first leg's start to its last leg's end.
			if want := at >= first && at < last; pieces[i].Covers(at) != want {
				t.Fatalf("%s: PieceAt(%v) covers it: %v, want %v (legs span [%v, %v))", name, at, !want, want, first, last)
			}
		}
		checked := 0
		for _, pc := range pieces {
			for _, at := range times {
				if !pc.Covers(at) {
					continue
				}
				checked++
				if got, want := pc.At(at), m.Position(at); !sameBits(got.X, want.X) || !sameBits(got.Y, want.Y) {
					t.Fatalf("%s: piece [%v, %v) at %v = %v, Position = %v", name, pc.T0, pc.T1, at, got, want)
				}
				if got, want := pc.Vel(), m.Velocity(at); !sameBits(got.X, want.X) || !sameBits(got.Y, want.Y) {
					t.Fatalf("%s: piece [%v, %v) velocity %v, Velocity(%v) = %v", name, pc.T0, pc.T1, got, at, want)
				}
				if got, want := pc.Vel(), ref.Velocity(at); !sameBits(got.X, want.X) || !sameBits(got.Y, want.Y) {
					t.Fatalf("%s: piece [%v, %v) velocity %v, leg reference's Velocity(%v) = %v", name, pc.T0, pc.T1, got, at, want)
				}
			}
		}
		if checked < len(legs) {
			t.Fatalf("%s: only %d (piece, instant) pairs checked over %d legs", name, checked, len(legs))
		}
	}
}

// TestRPGMMembersHaveNoPieces pins the other half of the contract: a model
// that is not piecewise linear says so by not being a PieceSource, rather
// than by handing out pieces that are nearly right.
func TestRPGMMembersHaveNoPieces(t *testing.T) {
	group, err := NewRPGMGroup(RPGMConfig{
		Field: geo.NewRect(1000, 1000), GroupSize: 3, GroupRadius: 50,
		SpeedMean: 8, SpeedDelta: 2, MemberSpeed: 2, Horizon: 100}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range group {
		if _, ok := m.(PieceSource); ok {
			t.Errorf("RPGM member %d claims to be piecewise linear", i)
		}
	}
}
