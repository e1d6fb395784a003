package node

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"instantad/internal/geo"
	"instantad/internal/obs"
)

// TestStatsTableGolden pins the node's observable counter surface: every
// Stats field's JSON key, the registry instrument its tags name, and that
// instrument's help string as the registry exposes it, one tab-separated row
// per field in Stats order.
func TestStatsTableGolden(t *testing.T) {
	cfg := testConfig(1, geo.Point{})
	cfg.Registry = obs.NewRegistry()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var buf bytes.Buffer
	if err := n.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	help := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, _ := strings.Cut(rest, " ")
			help[name] = h
		}
	}
	var got strings.Builder
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		metric := f.Tag.Get("metric")
		h, ok := help[metric]
		if !ok {
			t.Errorf("Stats.%s: instrument %q is not registered", f.Name, metric)
		}
		got.WriteString(f.Tag.Get("json") + "\t" + metric + "\t" + h + "\n")
	}
	want, err := os.ReadFile("testdata/stats_table.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("stats table drifted from testdata/stats_table.golden:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestStatsAddSumsEveryField fills two Stats with a distinct value per field
// and checks Add sums each one: a field Add skipped would keep t's value.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(1000 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(1001*(i+1)); got != want {
			t.Errorf("Stats.%s = %d after Add, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

// TestStatsReadsEveryCounter gives each counter a distinct count and checks
// Stats reports it in its namesake field, so a counter the Stats literal
// skips, or one without a Stats field, fails here. The node is built without
// a registry, as a fleet builds it: it has no registry and no histograms.
func TestStatsReadsEveryCounter(t *testing.T) {
	n, err := New(testConfig(1, geo.Point{}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Registry() != nil || n.hist != nil {
		t.Errorf("a node without Config.Registry has registry %p, histograms %p", n.Registry(), n.hist)
	}
	cv := reflect.ValueOf(&n.ctr).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).Addr().Interface().(*obs.Counter).Add(uint64(i + 1))
	}
	sv := reflect.ValueOf(n.Stats())
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		if f := sv.FieldByName(name); !f.IsValid() {
			t.Errorf("counters.%s has no Stats field", name)
		} else if f.Uint() != uint64(i+1) {
			t.Errorf("Stats.%s = %d, its counter holds %d", name, f.Uint(), i+1)
		}
	}
	for i, r := range statRows {
		name := sv.Type().Field(i).Name
		if _, ok := cv.Type().FieldByName(name); ok == r.gauge {
			t.Errorf("Stats.%s (%s): gauge %v, but a counter of that name exists: %v", name, r.metric, r.gauge, ok)
		}
	}
}
