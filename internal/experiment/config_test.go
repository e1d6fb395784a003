package experiment_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"instantad/internal/core"
	"instantad/internal/experiment"
)

// The scenario file codec, under the short names these tests call it by.
var (
	Encode = experiment.Encode
	Decode = experiment.Decode
	Save   = experiment.Save
	Load   = experiment.Load
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.Name = "roundtrip"
	sc.Protocol = core.GossipOpt2
	sc.LossRate = 0.05
	sc.Collisions = true
	sc.DIS = 200
	sc.IssueAt.X, sc.IssueAt.Y = 100, 200
	sc.Popularity = core.PopularityConfig{
		Enabled: true, F: 4, L: 16, SketchSeed: 9, RInc: 50, DInc: 20, RMax: 900, DMax: 500,
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Errorf("roundtrip mismatch:\n got  %+v\n want %+v", got, sc)
	}
}

// TestEveryScenarioFieldRoundTrips sets every exported field of Scenario,
// nested ones included, to a distinct valid non-zero value and requires the
// file to carry each one back: a field that has no key, or whose key the
// decoder drops, fails here by name. Workers and Shards are decode-only.
func TestEveryScenarioFieldRoundTrips(t *testing.T) {
	var sc experiment.Scenario
	n := 0
	fillDistinct(t, reflect.ValueOf(&sc).Elem(), &n)
	// Names and cross-field rules that Validate enforces.
	sc.Mobility, sc.RSUPlacement = experiment.Road, "degree"
	sc.Protocol, sc.Eviction = core.AsyncGossip, core.EvictRandomEntry
	sc.LossRate, sc.PedestrianFraction, sc.FadeZone = 0.25, 0.5, 0.75
	sc.SimTime = 1e4
	sc.Workers, sc.Shards = 0, 0
	if err := sc.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range differingFields(reflect.ValueOf(got), reflect.ValueOf(sc), "") {
		t.Errorf("%s did not round-trip", name)
	}

	legacy, err := Decode(strings.NewReader(withEngineKeys(t, sc, "3", "5")))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Workers != 3 || legacy.Shards != 5 {
		t.Errorf("decode-only keys read as workers %d, shards %d", legacy.Workers, legacy.Shards)
	}
	buf.Reset()
	if err := Encode(&buf, legacy); err != nil {
		t.Fatal(err)
	}
	if buf.String() != saved {
		t.Errorf("workers/shards were written:\n%s", buf.String())
	}
}

// fillDistinct sets every exported leaf under v to a value no other leaf
// holds, counting leaves in n.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		*n++
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, n)
		case reflect.Float64:
			f.SetFloat(float64(*n) + 0.5)
		case reflect.Int:
			f.SetInt(int64(*n))
		case reflect.Uint64:
			f.SetUint(uint64(*n))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", *n))
		default:
			t.Fatalf("%s: no distinct value for kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// differingFields names the leaves where a and b differ.
func differingFields(a, b reflect.Value, prefix string) []string {
	var out []string
	for i := 0; i < a.NumField(); i++ {
		f := a.Type().Field(i)
		name := prefix + f.Name
		if !f.IsExported() {
			continue
		}
		if a.Field(i).Kind() == reflect.Struct {
			out = append(out, differingFields(a.Field(i), b.Field(i), name+".")...)
		} else if a.Field(i).Interface() != b.Field(i).Interface() {
			out = append(out, name)
		}
	}
	return out
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	sc := experiment.DefaultScenario()
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"alpha"`, `"alhpa"`, 1)
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("typo'd field accepted")
	}
}

func TestDecodeRejectsBadProtocol(t *testing.T) {
	sc := experiment.DefaultScenario()
	var buf bytes.Buffer
	_ = Encode(&buf, sc)
	bad := strings.Replace(buf.String(), "Optimized Gossiping", "Telepathy", 1)
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestDecodeValidatesScenario(t *testing.T) {
	sc := experiment.DefaultScenario()
	var buf bytes.Buffer
	_ = Encode(&buf, sc)
	bad := strings.Replace(buf.String(), `"num_peers": 300`, `"num_peers": 0`, 1)
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	sc := experiment.DefaultScenario()
	sc.Seed = 42
	if err := Save(path, sc); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Error("save/load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadedScenarioRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	sc := experiment.DefaultScenario()
	sc.NumPeers = 60
	sc.D = 100
	sc.SimTime = 250
	if err := Save(path, sc); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Run()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != direct.Messages || res.DeliveryRate != direct.DeliveryRate {
		t.Error("loaded scenario diverged from the original")
	}
}

// TestShardsWorkersOmittedStayDefault pins that a saved file carries neither
// a workers nor a shards key, and that a file without them decodes to the
// scenario that was saved.
func TestShardsWorkersOmittedStayDefault(t *testing.T) {
	sc := experiment.DefaultScenario()
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "\"workers\"") || strings.Contains(s, "\"shards\"") {
		t.Fatalf("zero workers/shards serialized: %s", s)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("decoded %+v, want %+v", got, sc)
	}
}

// TestRoadFieldsRoundtrip covers the urban VANET scenario fields.
func TestRoadFieldsRoundtrip(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.Mobility = experiment.Road
	sc.RoadFile = "roads/grid.txt"
	sc.NumRSU = 6
	sc.RSUPlacement = "degree"
	sc.RSURange = 250
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Errorf("road roundtrip mismatch:\n got  %+v\n want %+v", got, sc)
	}
}

// TestRoadFieldsOmittedStayDefault pins backward compatibility: pre-road
// config files decode with the road fields zero, and zero road fields are
// omitted on encode so open-field files stay loadable by older builds.
func TestRoadFieldsOmittedStayDefault(t *testing.T) {
	sc := experiment.DefaultScenario()
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"road_file"`, `"num_rsu"`, `"rsu_placement"`, `"rsu_range"`} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("zero road field %s serialized: %s", key, buf.String())
		}
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.RoadFile != "" || got.NumRSU != 0 || got.RSUPlacement != "" || got.RSURange != 0 {
		t.Fatalf("road defaults decoded as %+v", got)
	}
}

// TestDecodeRejectsNegativeRSUCount checks scenario validation catches a
// corrupted RSU count at decode time.
func TestDecodeRejectsNegativeRSUCount(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.Mobility = experiment.Road
	sc.NumRSU = 4
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"num_rsu": 4`, `"num_rsu": -4`, 1)
	if !strings.Contains(bad, `"num_rsu": -4`) {
		t.Fatal("fixture did not contain an num_rsu field to corrupt")
	}
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("negative num_rsu accepted")
	}
}

// TestDecodeRejectsRSUsOffRoad checks cross-field validation: RSUs demand
// road mobility.
func TestDecodeRejectsRSUsOffRoad(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.Mobility = experiment.Road
	sc.NumRSU = 4
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"mobility": "road"`, `"mobility": "random-waypoint"`, 1)
	if !strings.Contains(bad, `"mobility": "random-waypoint"`) {
		t.Fatal("fixture did not contain the mobility field to corrupt")
	}
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("RSUs without road mobility accepted")
	}
}

// TestAsyncFieldsRoundtrip covers the asynchronous pairwise gossip knobs
// plus the slot-grid width.
func TestAsyncFieldsRoundtrip(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.Protocol = core.AsyncGossip
	sc.RoundSlots = 32
	sc.AsyncK = 2
	sc.AsyncMeanDelay = 15
	sc.AsyncTimeout = 45
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Errorf("async roundtrip mismatch:\n got  %+v\n want %+v", got, sc)
	}
}

// TestAsyncFieldsOmittedStayDefault pins backward compatibility: pre-async
// config files decode with the async fields zero ("pick the default"), and
// zero async fields are omitted on encode so round-gossip files stay
// loadable by older builds.
func TestAsyncFieldsOmittedStayDefault(t *testing.T) {
	sc := experiment.DefaultScenario()
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"round_slots"`, `"async_k"`, `"async_mean_delay"`, `"async_timeout"`} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("zero async field %s serialized: %s", key, buf.String())
		}
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.RoundSlots != 0 || got.AsyncK != 0 || got.AsyncMeanDelay != 0 || got.AsyncTimeout != 0 {
		t.Fatalf("async defaults decoded as %+v", got)
	}
}

// TestDecodeRejectsNegativeAsyncK checks validation runs on the async knobs.
func TestDecodeRejectsNegativeAsyncK(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.Protocol = core.AsyncGossip
	sc.AsyncK = 2
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"async_k": 2`, `"async_k": -2`, 1)
	if !strings.Contains(bad, `"async_k": -2`) {
		t.Fatal("fixture did not contain an async_k field to corrupt")
	}
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("negative async_k accepted")
	}
}

// withEngineKeys returns sc's encoding with the two keys files saved by older
// builds carry, set to the given literals.
func withEngineKeys(t *testing.T, sc experiment.Scenario, workers, shards string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	brace := strings.LastIndex(s, "}")
	return strings.TrimRight(s[:brace], " \n") +
		",\n  \"workers\": " + workers + ",\n  \"shards\": " + shards + "\n}\n"
}

// TestDecodeRejectsNegativeShards checks validation runs on decoded files,
// the deprecated keys included.
func TestDecodeRejectsNegativeShards(t *testing.T) {
	sc := experiment.DefaultScenario()
	if _, err := Decode(strings.NewReader(withEngineKeys(t, sc, "2", "-2"))); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := Decode(strings.NewReader(withEngineKeys(t, sc, "-1", "2"))); err == nil {
		t.Error("negative workers accepted")
	}
}

// TestLegacyEngineKeysLoadRunAndDrop is the compatibility contract for files
// adsim saved while it wrote the host's core count into them: such a file
// still loads, runs exactly what the same file without the keys runs, and
// saves back without them — whatever the loaded scenario holds, so a saved
// file no longer depends on the host that saved it.
func TestLegacyEngineKeysLoadRunAndDrop(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.NumPeers = 60
	sc.D = 100
	sc.SimTime = 250
	legacy, err := Decode(strings.NewReader(withEngineKeys(t, sc, "8", "4")))
	if err != nil {
		t.Fatalf("file with workers/shards keys refused: %v", err)
	}
	want, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := legacy.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Report, want.Report) || got.Bytes != want.Bytes {
		t.Errorf("legacy keys changed the run:\n got  %+v\n want %+v", got.Report, want.Report)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, legacy); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "\"workers\"") || strings.Contains(s, "\"shards\"") {
		t.Errorf("re-saved file still carries the engine keys: %s", s)
	}
	if again, err := Decode(&buf); err != nil || again != sc {
		t.Errorf("re-saved file decodes to %+v (%v), want the scenario without the keys", again, err)
	}
}
