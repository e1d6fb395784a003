package mobility

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

// refLeg and refTrajectory are the layout every trajectory had before it
// was stored as its stops: one 48 B leg (t0, t1, from, to) per piece, each
// repeating its predecessor's end, with the queries as they read it then.
// TestStopsMatchLegReference checks the stop list against them bit for bit.
type refLeg struct {
	t0, t1   float64
	from, to geo.Point
}

func (l refLeg) velocity() geo.Vec {
	dt := l.t1 - l.t0
	if dt <= 0 {
		return geo.Vec{}
	}
	return l.to.Sub(l.from).Scale(1 / dt)
}

type refTrajectory struct {
	legs []refLeg
}

func refFromLegs(legs []Leg) *refTrajectory {
	ref := &refTrajectory{legs: make([]refLeg, len(legs))}
	for i, l := range legs {
		ref.legs[i] = refLeg{
			t0: l.T0, t1: l.T1,
			from: geo.Point{X: l.From[0], Y: l.From[1]},
			to:   geo.Point{X: l.To[0], Y: l.To[1]},
		}
	}
	return ref
}

func (tr *refTrajectory) locate(t float64) int {
	i := sort.Search(len(tr.legs), func(i int) bool { return tr.legs[i].t1 > t })
	if i >= len(tr.legs) {
		return len(tr.legs) - 1
	}
	return i
}

func (tr *refTrajectory) Position(t float64) geo.Point {
	if len(tr.legs) == 0 {
		return geo.Point{}
	}
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

func (tr *refTrajectory) PieceAt(t float64) Piece {
	if len(tr.legs) == 0 || t >= tr.legs[len(tr.legs)-1].t1 {
		return Piece{}
	}
	l := tr.legs[tr.locate(t)]
	if t < l.t0 {
		return Piece{}
	}
	return Piece{T0: l.t0, T1: l.t1, From: l.from, To: l.to}
}

func (tr *refTrajectory) Velocity(t float64) geo.Vec {
	if len(tr.legs) == 0 {
		return geo.Vec{}
	}
	if t < tr.legs[0].t0 || t >= tr.legs[len(tr.legs)-1].t1 {
		return geo.Vec{}
	}
	return tr.legs[tr.locate(t)].velocity()
}

// nsGapScript is a movement script with gaps between its setdest commands,
// an overlap inside the import's tolerance and a node that never moves.
const nsGapScript = `$node_(0) set X_ -40.5
$node_(0) set Y_ 12.25
$node_(0) set Z_ 0
$ns_ at 3.5 "$node_(0) setdest 100.0 -80.0 7.5"
$ns_ at 60.0 "$node_(0) setdest -300.0 -80.0 12.0"
$ns_ at 120.0 "$node_(0) setdest -300.0 -80.0 3.0"
$ns_ at 121.25 "$node_(0) setdest 0.125 0.5 1.5"
$node_(1) set X_ 7
$node_(1) set Y_ 9
$ns_ at 0 "$node_(1) setdest 10 13 1"
$ns_ at 4.99999 "$node_(1) setdest 10 20 7"
$ns_ at 400 "$node_(1) setdest 1 1 0.5"
$node_(2) set X_ 5
$node_(2) set Y_ 6
`

// builtTrajectories builds one trajectory or more with every builder in
// the package, by name: Random Waypoint with and without pause, walk,
// Manhattan, road, NS-2 import, static and the trajectories an RPGM
// group's members compose.
func builtTrajectories(t *testing.T) map[string]*trajectory {
	t.Helper()
	out := map[string]*trajectory{}
	put := func(name string, m Model, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = m.(*trajectory)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		m, err := NewRandomWaypoint(rwpCfg(), rng.New(seed))
		put(fmt.Sprintf("random-waypoint/%d", seed), m, err)
		cfg := rwpCfg()
		cfg.Pause, cfg.Horizon = 0, 300
		m, err = NewRandomWaypoint(cfg, rng.New(seed))
		put(fmt.Sprintf("random-waypoint-no-pause/%d", seed), m, err)
		m, err = NewRandomWalk(RandomWalkConfig{
			Field: geo.NewRect(60, 40), SpeedMean: 10, SpeedDelta: 5, Epoch: 20, Horizon: 400}, rng.New(seed))
		put(fmt.Sprintf("random-walk/%d", seed), m, err)
		m, err = NewManhattan(ManhattanConfig{
			Field: geo.NewRect(1000, 1000), BlockSize: 100, SpeedMean: 10, SpeedDelta: 5, Horizon: 400}, rng.New(seed))
		put(fmt.Sprintf("manhattan/%d", seed), m, err)
		m, err = NewRoad(RoadConfig{
			Graph: roadTestGraph(t), SpeedMean: 10, SpeedDelta: 5, Pause: 2, Horizon: 400}, rng.New(seed))
		put(fmt.Sprintf("road/%d", seed), m, err)
	}
	parsed, err := ParseNS2(strings.NewReader(nsGapScript))
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range parsed {
		put(fmt.Sprintf("ns2/%d", id), m, nil)
	}
	put("static", NewStatic(geo.Point{X: 3, Y: -4}), nil)
	group, err := NewRPGMGroup(RPGMConfig{
		Field: geo.NewRect(1000, 1000), GroupSize: 3, GroupRadius: 50,
		SpeedMean: 8, SpeedDelta: 2, MemberSpeed: 2, Pause: 4, Horizon: 300}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range group {
		mem := m.(rpgmMember)
		put("rpgm/ref", mem.ref, nil)
		put(fmt.Sprintf("rpgm/offset/%d", i), mem.offset, nil)
	}
	return out
}

// legDigest is an FNV-1a hash of the bits of every leg Legs lists.
func legDigest(legs []Leg) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range legs {
		for _, x := range []float64{l.T0, l.T1, l.From[0], l.From[1], l.To[0], l.To[1]} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// legLayoutDigests are the leg count and legDigest of every trajectory
// builtTrajectories makes, read from the 48 B leg layout before trajectories
// were stored as stops: the stop list keeps every builder's legs.
var legLayoutDigests = map[string]struct {
	legs   int
	digest uint64
}{
	"manhattan/1":                {38, 0x4809b5bfd2efc69f},
	"manhattan/2":                {39, 0x4cde1a0f787a9a0a},
	"manhattan/3":                {33, 0x07b23731a3419973},
	"ns2/0":                      {7, 0xe771aa1fe886402a},
	"ns2/1":                      {4, 0x0a6f994ed5ac84f4},
	"ns2/2":                      {1, 0xb5127f5b72e04c5a},
	"random-walk/1":              {122, 0x1b17bec106d45f58},
	"random-walk/2":              {135, 0xadfd2c9e82d8fb6f},
	"random-walk/3":              {106, 0x603fe1b66f40a758},
	"random-waypoint-no-pause/1": {4, 0xabffef1f89dd0e0c},
	"random-waypoint-no-pause/2": {2, 0xdb64f2001a68456e},
	"random-waypoint-no-pause/3": {4, 0xd3ec1e5523e4e9b7},
	"random-waypoint/1":          {43, 0x8ef4050e2b1f292e},
	"random-waypoint/2":          {51, 0x62e1dcfe86bfd9df},
	"random-waypoint/3":          {46, 0x0bcbae38027c831b},
	"road/1":                     {33, 0x63c2fb730c36a742},
	"road/2":                     {23, 0xef2e993034874447},
	"road/3":                     {31, 0x7f7e2cdd0ec25cfc},
	"rpgm/offset/0":              {27, 0xaa5c79719cd9ce1a},
	"rpgm/offset/1":              {29, 0xa59e07bf5746358f},
	"rpgm/offset/2":              {33, 0x5cbafc4fdba0a3c2},
	"rpgm/ref":                   {11, 0xcb366f3b0cd0b5fe},
	"static":                     {1, 0xa49062cf7df8835a},
}

// probeTimes returns the instants a trajectory with these legs is compared
// at: every leg boundary and its two neighbouring floats, points inside each
// leg, instants before the first leg and from the end on, and 200 instants
// drawn from seed across the whole span.
func probeTimes(legs []Leg, seed int64) []float64 {
	first, last := legs[0].T0, legs[len(legs)-1].T1
	times := []float64{math.Inf(-1), first - 1, last + 1, last + 1e6, math.Inf(1)}
	for _, l := range legs {
		for _, b := range []float64{l.T0, l.T1} {
			times = append(times, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
		}
		times = append(times, l.T0+(l.T1-l.T0)/3)
	}
	span := min(last, 1e4) - first + 20
	r := rand.New(rand.NewSource(seed))
	for range 200 {
		times = append(times, first-10+r.Float64()*span)
	}
	return times
}

// samePiece compares two pieces by the bits of every field.
func samePiece(a, b Piece) bool {
	return sameBits(a.T0, b.T0) && sameBits(a.T1, b.T1) &&
		samePoint(a.From, b.From) && samePoint(a.To, b.To)
}

func samePoint(a, b geo.Point) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) }

// compareModels fails unless got answers Position and Velocity as want does,
// bit for bit, at every instant.
func compareModels(t *testing.T, name string, got, want Model, times []float64) {
	t.Helper()
	for _, at := range times {
		if g, w := got.Position(at), want.Position(at); !samePoint(g, w) {
			t.Fatalf("%s: Position(%.17g) = (%.17g, %.17g), reference (%.17g, %.17g)", name, at, g.X, g.Y, w.X, w.Y)
		}
		if g, w := got.Velocity(at), want.Velocity(at); !sameBits(g.X, w.X) || !sameBits(g.Y, w.Y) {
			t.Fatalf("%s: Velocity(%.17g) = (%.17g, %.17g), reference (%.17g, %.17g)", name, at, g.X, g.Y, w.X, w.Y)
		}
	}
}

// TestStopsMatchLegReference checks the stop layout against the leg layout
// it replaced. Every builder stores the legs the leg layout stored (pinned by
// legLayoutDigests), Position, Velocity and PieceAt answer what the leg
// layout's queries answer at every probe instant, bit for bit, a piece's
// Vel() is its reference leg's stored velocity wherever the piece covers the
// instant, and Legs round-trips: adding its legs back through add rebuilds
// the same stops.
func TestStopsMatchLegReference(t *testing.T) {
	built := builtTrajectories(t)
	if len(built) != len(legLayoutDigests) {
		t.Fatalf("%d trajectories built, %d digests pinned", len(built), len(legLayoutDigests))
	}
	// The corner legs are written out here rather than read back through
	// Legs, so the reference does not rest on Legs for them.
	corner := &refTrajectory{legs: []refLeg{
		{t0: 0, t1: 2, from: geo.Point{X: 1, Y: 1}, to: geo.Point{X: 5, Y: 1}},
		{t0: 2, t1: 2, from: geo.Point{X: 5, Y: 1}, to: geo.Point{X: 5, Y: 1}},
		{t0: 2, t1: 2, from: geo.Point{X: 5, Y: 1}, to: geo.Point{X: 5, Y: 1}},
		{t0: 2, t1: 7, from: geo.Point{X: 5, Y: 1}, to: geo.Point{X: 5, Y: 9}},
	}}
	type pair struct {
		tr  *trajectory
		ref *refTrajectory
	}
	pairs := map[string]pair{"corner": {cornerTrajectory(), corner}}
	for name, tr := range built {
		legs := tr.Legs()
		pin, ok := legLayoutDigests[name]
		if !ok {
			t.Fatalf("%s: no digest pinned", name)
		}
		if len(legs) != pin.legs || legDigest(legs) != pin.digest {
			t.Fatalf("%s: %d legs, digest %#016x; the leg layout had %d, %#016x",
				name, len(legs), legDigest(legs), pin.legs, pin.digest)
		}
		pairs[name] = pair{tr, refFromLegs(legs)}
	}
	instants, velChecked := 0, 0
	for name, p := range pairs {
		legs := p.tr.Legs()
		if len(legs) != len(p.ref.legs) || len(p.tr.stops) != len(legs)+1 {
			t.Fatalf("%s: %d stops, %d legs, reference %d legs", name, len(p.tr.stops), len(legs), len(p.ref.legs))
		}
		times := probeTimes(legs, int64(len(name)))
		compareModels(t, name, p.tr, p.ref, times)
		for _, at := range times {
			g, w := p.tr.PieceAt(at), p.ref.PieceAt(at)
			if !samePiece(g, w) {
				t.Fatalf("%s: PieceAt(%v) = %+v, reference %+v", name, at, g, w)
			}
			if !g.Covers(at) {
				continue
			}
			if gv, wv := g.Vel(), p.ref.legs[p.ref.locate(at)].velocity(); !sameBits(gv.X, wv.X) || !sameBits(gv.Y, wv.Y) {
				t.Fatalf("%s: PieceAt(%v).Vel() = (%.17g, %.17g), reference leg (%.17g, %.17g)", name, at, gv.X, gv.Y, wv.X, wv.Y)
			}
			velChecked++
		}
		instants += len(times)

		rebuilt := &trajectory{}
		for _, l := range legs {
			rebuilt.add(l.T0, l.T1, geo.Point{X: l.From[0], Y: l.From[1]}, geo.Point{X: l.To[0], Y: l.To[1]})
		}
		for i, s := range rebuilt.stops {
			if o := p.tr.stops[i]; !sameBits(s.t, o.t) || !samePoint(s.p, o.p) {
				t.Fatalf("%s: stop %d rebuilt from Legs as %+v, was %+v", name, i, s, o)
			}
		}
	}
	if velChecked == 0 {
		t.Fatal("no probe instant lay inside a piece: Vel() went unchecked")
	}
	t.Logf("%d trajectories, %d instants compared, %d piece velocities", len(pairs), instants, velChecked)
}

// TestRPGMMembersMatchLegReference composes each RPGM member from reference
// trajectories and checks that the member answers as that composition does.
func TestRPGMMembersMatchLegReference(t *testing.T) {
	group, err := NewRPGMGroup(RPGMConfig{
		Field: geo.NewRect(400, 400), GroupSize: 4, GroupRadius: 80,
		SpeedMean: 8, SpeedDelta: 2, MemberSpeed: 2, Pause: 4, Horizon: 300}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range group {
		mem := m.(rpgmMember)
		refLegs, offLegs := mem.ref.(LegLister).Legs(), mem.offset.(LegLister).Legs()
		ref := mem
		ref.ref, ref.offset = refFromLegs(refLegs), refFromLegs(offLegs)
		times := append(probeTimes(refLegs, int64(i)), probeTimes(offLegs, int64(i))...)
		compareModels(t, fmt.Sprintf("member %d", i), mem, ref, times)
	}
}

// TestAddRejectsAGap pins add's one precondition: a leg starts where the
// trajectory ends, in time and in place.
func TestAddRejectsAGap(t *testing.T) {
	for name, leg := range map[string]Leg{
		"late":      {T0: 2.5, T1: 3, From: [2]float64{5, 1}, To: [2]float64{6, 1}},
		"elsewhere": {T0: 2, T1: 3, From: [2]float64{5, 1.5}, To: [2]float64{6, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: add took a leg that does not start at the end", name)
				}
			}()
			tr := &trajectory{}
			tr.add(0, 2, geo.Point{X: 1, Y: 1}, geo.Point{X: 5, Y: 1})
			tr.add(leg.T0, leg.T1, geo.Point{X: leg.From[0], Y: leg.From[1]}, geo.Point{X: leg.To[0], Y: leg.To[1]})
		}()
	}
}
