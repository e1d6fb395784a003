package mobility

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

func TestExportParseRoundtrip(t *testing.T) {
	cfg := RandomWaypointConfig{
		Field:      geo.NewRect(1000, 1000),
		SpeedMean:  10,
		SpeedDelta: 5,
		Pause:      8,
		Horizon:    500,
	}
	orig := make([]Model, 5)
	for i := range orig {
		m, err := NewRandomWaypoint(cfg, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		orig[i] = m
	}
	var buf bytes.Buffer
	if err := ExportNS2(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseNS2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(orig) {
		t.Fatalf("parsed %d nodes, want %d", len(parsed), len(orig))
	}
	// Positions must agree at all times within the horizon (to fp tolerance
	// accumulated through speed round-tripping).
	for i, m := range orig {
		p, ok := parsed[i]
		if !ok {
			t.Fatalf("node %d missing", i)
		}
		for tt := 0.0; tt < cfg.Horizon; tt += 7.3 {
			a, b := m.Position(tt), p.Position(tt)
			if a.Dist(b) > 0.01 {
				t.Fatalf("node %d at t=%v: %v vs %v", i, tt, a, b)
			}
		}
	}
}

func TestExportFormat(t *testing.T) {
	m := NewStatic(geo.Point{X: 10, Y: 20})
	var buf bytes.Buffer
	if err := ExportNS2(&buf, []Model{m}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"$node_(0) set X_ 10.000000", "$node_(0) set Y_ 20.000000", "set Z_"} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	// A static node has no setdest lines.
	if strings.Contains(out, "setdest") {
		t.Error("static node should not emit setdest")
	}
}

func TestExportRejectsForeignModel(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportNS2(&buf, []Model{foreignModel{}}); err == nil {
		t.Error("non-LegLister model exported")
	}
}

type foreignModel struct{}

func (foreignModel) Position(float64) geo.Point { return geo.Point{} }
func (foreignModel) Velocity(float64) geo.Vec   { return geo.Vec{} }

func TestParseHandWrittenScript(t *testing.T) {
	script := `# NS-2 movement
$node_(0) set X_ 0.0
$node_(0) set Y_ 0.0
$node_(0) set Z_ 0.0
$ns_ at 10.0 "$node_(0) setdest 100.0 0.0 10.0"
$ns_ at 30.0 "$node_(0) setdest 100.0 50.0 5.0"
$node_(3) set X_ 500.0
$node_(3) set Y_ 500.0
$node_(3) set Z_ 0.0
`
	models, err := ParseNS2(strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	m0, ok := models[0]
	if !ok {
		t.Fatal("node 0 missing")
	}
	// Holds position until t=10.
	if p := m0.Position(5); p != (geo.Point{X: 0, Y: 0}) {
		t.Errorf("t=5: %v", p)
	}
	// Moving at 10 m/s toward (100,0): at t=15 it is at x=50.
	if p := m0.Position(15); math.Abs(p.X-50) > 1e-9 || p.Y != 0 {
		t.Errorf("t=15: %v", p)
	}
	// Arrives at t=20, pauses until t=30 (next setdest).
	if p := m0.Position(25); p != (geo.Point{X: 100, Y: 0}) {
		t.Errorf("t=25: %v", p)
	}
	// Second move: 50 m at 5 m/s → arrives t=40; frozen after.
	if p := m0.Position(100); p != (geo.Point{X: 100, Y: 50}) {
		t.Errorf("t=100: %v", p)
	}
	// Node 3 never moves.
	m3 := models[3]
	if p := m3.Position(999); p != (geo.Point{X: 500, Y: 500}) {
		t.Errorf("static node at %v", p)
	}
	if v := m3.Velocity(10); v != (geo.Vec{}) {
		t.Errorf("static node velocity %v", v)
	}
	// The script's fastest leg is the 10 m/s one; pauses and the parked node
	// do not count.
	if vmax, err := MaxLegSpeed([]Model{m0, m3}); err != nil || math.Abs(vmax-10) > 1e-9 {
		t.Errorf("MaxLegSpeed = %v, %v; want 10", vmax, err)
	}
	if _, err := MaxLegSpeed([]Model{m0, foreignModel{}}); err == nil {
		t.Error("MaxLegSpeed bounded a model without legs")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":    "hello world\n",
		"empty":      "",
		"bad number": "$node_(0) set X_ abc\n",
		"zero speed": "$node_(0) set X_ 0\n$node_(0) set Y_ 0\n$ns_ at 1.0 \"$node_(0) setdest 5.0 5.0 0.0\"\n",
		"overlap":    "$node_(0) set X_ 0\n$node_(0) set Y_ 0\n$ns_ at 1.0 \"$node_(0) setdest 100.0 0.0 1.0\"\n$ns_ at 2.0 \"$node_(0) setdest 0.0 0.0 1.0\"\n",
	}
	for name, script := range cases {
		if _, err := ParseNS2(strings.NewReader(script)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestParseCommentsAndBlanksIgnored(t *testing.T) {
	script := "# comment\n\n$node_(1) set X_ 7\n$node_(1) set Y_ 9\n"
	models, err := ParseNS2(strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	if models[1].Position(0) != (geo.Point{X: 7, Y: 9}) {
		t.Errorf("position %v", models[1].Position(0))
	}
}

func TestLegsAccessor(t *testing.T) {
	m, err := NewRandomWaypoint(RandomWaypointConfig{
		Field: geo.NewRect(100, 100), SpeedMean: 10, SpeedDelta: 2,
		Pause: 1, Horizon: 60,
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	legs := m.(LegLister).Legs()
	if len(legs) == 0 {
		t.Fatal("no legs")
	}
	for i := 1; i < len(legs); i++ {
		if legs[i].T0 != legs[i-1].T1 {
			t.Fatalf("legs not contiguous at %d", i)
		}
		if legs[i-1].To != legs[i].From {
			t.Fatalf("legs not connected at %d", i)
		}
	}
}
