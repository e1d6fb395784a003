package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite docs/SCENARIOS.md's parameter table from Scenario's tags")

// TestParamDocs renders the scenario parameter table from the rows and
// requires docs/SCENARIOS.md to hold it between its params markers.
// `go test ./internal/experiment -run TestParamDocs -update` rewrites it.
func TestParamDocs(t *testing.T) {
	path := filepath.Join("..", "..", "docs", "SCENARIOS.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- params:begin -->\n", "<!-- params:end -->"
	i, j := bytes.Index(doc, []byte(begin)), bytes.Index(doc, []byte(end))
	if i < 0 || j < i {
		t.Fatalf("%s: no %q … %q markers", path, begin, end)
	}
	want := string(doc[:i+len(begin)]) + paramTable() + string(doc[j:])
	if *update {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if string(doc) != want {
		t.Errorf("%s: parameter table is stale; run go test ./internal/experiment -run TestParamDocs -update", path)
	}
}

// paramTable renders every row that has a file key as a markdown table.
func paramTable() string {
	var b strings.Builder
	b.WriteString("| key | flag | unit | default | range | doc |\n|---|---|---|---|---|---|\n")
	def := reflect.ValueOf(DefaultScenario())
	cell := func(s string) string { return strings.ReplaceAll(s, "|", `\|`) }
	for _, p := range params {
		if p.key == "" {
			continue
		}
		v := def.FieldByIndex(p.index)
		flagName, rng := p.flag, p.rng
		if flagName != "" {
			flagName = "`-" + flagName + "`"
		}
		if rng == "" && v.Kind() == reflect.Float64 {
			rng = "finite"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n",
			p.key, flagName, p.unit, cell(fmt.Sprint(v.Interface())), rng, cell(p.doc))
	}
	return b.String()
}

// TestSavedDefaultScenarioLoads decodes the default scenario as adsim
// -save-config wrote it at 4415c59, before scenario files were generated
// from Scenario's tags.
func TestSavedDefaultScenarioLoads(t *testing.T) {
	sc, err := Load(filepath.Join("testdata", "default_scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sc != DefaultScenario() {
		t.Errorf("decoded %+v, want %+v", sc, DefaultScenario())
	}
}
