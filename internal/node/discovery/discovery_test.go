package discovery

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"instantad/internal/geo"
	"instantad/internal/rng"
)

func sampleBeacon() Beacon {
	return Beacon{
		ID:    7,
		Addr:  "127.0.0.1:7001",
		Pos:   geo.Point{X: 120.5, Y: -3},
		Vel:   geo.Vec{X: 1.5, Y: 0},
		Range: 250,
		Epoch: 1.7e9,
	}
}

func TestBeaconRoundtrip(t *testing.T) {
	b := sampleBeacon()
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if want := beaconFixedLen + len(b.Addr); len(data) != want {
		t.Fatalf("frame is %d bytes, want %d", len(data), want)
	}
	d, err := DecodeBeacon(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, b) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", d, b)
	}
}

func TestBeaconValidate(t *testing.T) {
	cases := map[string]func(*Beacon){
		"empty addr": func(b *Beacon) { b.Addr = "" },
		"huge addr":  func(b *Beacon) { b.Addr = strings.Repeat("x", MaxAddrLen+1) },
		"nan pos":    func(b *Beacon) { b.Pos.X = math.NaN() },
		"inf vel":    func(b *Beacon) { b.Vel.Y = math.Inf(1) },
		"neg range":  func(b *Beacon) { b.Range = -1 },
		"nan epoch":  func(b *Beacon) { b.Epoch = math.NaN() },
		"inf range":  func(b *Beacon) { b.Range = math.Inf(1) },
	}
	for name, mutate := range cases {
		b := sampleBeacon()
		mutate(&b)
		if _, err := b.Encode(); err == nil {
			t.Errorf("%s encoded", name)
		}
	}
}

func TestBeaconDecodeErrors(t *testing.T) {
	good, err := sampleBeacon().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:10],
		"header only": good[:beaconFixedLen],
		"bad magic":   append([]byte{0x00}, good[1:]...),
		"bad version": append([]byte{BeaconMagic, 99}, good[2:]...),
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte(nil), good...), 0xFF),
		"zero addrlen": func() []byte {
			d := append([]byte(nil), good...)
			d[beaconFixedLen-1] = 0
			return d[:beaconFixedLen]
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeBeacon(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Non-finite kinematics on the wire are rejected.
	nan := append([]byte(nil), good...)
	for i := 6; i < 14; i++ {
		nan[i] = 0xFF
	}
	if _, err := DecodeBeacon(nan); err == nil {
		t.Error("NaN position accepted")
	}
}

// randomBeacon draws an arbitrary but valid beacon: random identity,
// kinematics, address length and epoch hint.
func randomBeacon(r *rng.Stream) Beacon {
	addr := make([]byte, 1+r.Intn(MaxAddrLen))
	for i := range addr {
		addr[i] = byte('a' + r.Intn(26))
	}
	return Beacon{
		ID:    uint32(r.Uint64()),
		Addr:  string(addr),
		Pos:   geo.Point{X: r.Range(-1e6, 1e6), Y: r.Range(-1e6, 1e6)},
		Vel:   geo.Vec{X: r.Range(-100, 100), Y: r.Range(-100, 100)},
		Range: r.Range(0, 1e5),
		Epoch: r.Range(0, 2e9),
	}
}

// TestBeaconRoundtripProperty drives the codec across randomized beacons:
// every encode must decode back exactly, at the exact canonical length.
func TestBeaconRoundtripProperty(t *testing.T) {
	r := rng.New(20260805)
	for i := 0; i < 300; i++ {
		b := randomBeacon(r)
		data, err := b.Encode()
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if want := beaconFixedLen + len(b.Addr); len(data) != want {
			t.Fatalf("case %d: frame is %d bytes, want %d", i, len(data), want)
		}
		d, err := DecodeBeacon(data)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(d, b) {
			t.Fatalf("case %d: roundtrip mismatch: %+v vs %+v", i, d, b)
		}
	}
}

// FuzzDecodeBeacon hardens the HELLO parser on its own: any accepted input
// must re-encode canonically, everything else must error without panicking.
func FuzzDecodeBeacon(f *testing.F) {
	good, _ := sampleBeacon().Encode()
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:1])
	f.Add(good[:beaconFixedLen-1])
	f.Add(good[:beaconFixedLen])
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0x00))
	f.Fuzz(func(t *testing.T, in []byte) {
		b, err := DecodeBeacon(in)
		if err != nil {
			return
		}
		out, err := b.Encode()
		if err != nil {
			t.Fatalf("accepted beacon does not re-encode: %v", err)
		}
		if len(out) != len(in) {
			t.Fatalf("non-canonical beacon: %d vs %d bytes", len(out), len(in))
		}
	})
}

func TestTableObserveEvents(t *testing.T) {
	tab := NewTable(time.Second)
	now := time.Unix(100, 0)
	b := sampleBeacon()

	ev, prev := tab.Observe(b, now)
	if ev != New || prev != "" {
		t.Fatalf("first observe: %v %q", ev, prev)
	}
	ev, prev = tab.Observe(b, now.Add(time.Millisecond))
	if ev != Refreshed || prev != "" {
		t.Fatalf("second observe: %v %q", ev, prev)
	}
	moved := b
	moved.Addr = "127.0.0.1:9999"
	ev, prev = tab.Observe(moved, now.Add(2*time.Millisecond))
	if ev != AddrChanged || prev != b.Addr {
		t.Fatalf("addr change: %v %q", ev, prev)
	}
	nb, ok := tab.Get(b.ID)
	if !ok || nb.Addr != moved.Addr || nb.Beacons != 3 {
		t.Fatalf("neighbor after three beacons: %+v", nb)
	}
	if nb.FirstHeard != now {
		t.Errorf("FirstHeard rewritten to %v", nb.FirstHeard)
	}
}

func TestTableSweepTTL(t *testing.T) {
	tab := NewTable(100 * time.Millisecond)
	now := time.Unix(100, 0)
	a, b := sampleBeacon(), sampleBeacon()
	b.ID, b.Addr = 8, "127.0.0.1:7002"
	tab.Observe(a, now)
	tab.Observe(b, now.Add(60*time.Millisecond))

	if got := tab.Sweep(now.Add(90 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("swept %v before TTL", got)
	}
	// 110ms after a's last beacon: a expires, b (50ms old) survives.
	expired := tab.Sweep(now.Add(110 * time.Millisecond))
	if len(expired) != 1 || expired[0].ID != a.ID {
		t.Fatalf("expired %+v, want just node %d", expired, a.ID)
	}
	if tab.Len() != 1 {
		t.Fatalf("table len %d after sweep", tab.Len())
	}
	// A beacon exactly at the TTL boundary survives (strict >).
	if got := tab.Sweep(now.Add(160 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("boundary entry swept: %v", got)
	}
	if got := tab.Sweep(now.Add(161 * time.Millisecond)); len(got) != 1 {
		t.Fatalf("expired %v, want node %d out", got, b.ID)
	}
	if !tab.Empty() {
		t.Error("table not empty after full sweep")
	}
}

func TestTableSnapshotSortedAndCopied(t *testing.T) {
	tab := NewTable(time.Second)
	now := time.Now()
	for _, id := range []uint32{5, 1, 9, 3} {
		b := sampleBeacon()
		b.ID = id
		tab.Observe(b, now)
	}
	snap := tab.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot of %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].ID >= snap[i].ID {
			t.Fatalf("snapshot unsorted: %v", snap)
		}
	}
	// Mutating the snapshot must not touch the table.
	snap[0].Addr = "mutated"
	if nb, _ := tab.Get(snap[0].ID); nb.Addr == "mutated" {
		t.Error("snapshot aliases table storage")
	}
}
