package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"

	"instantad/internal/core"
	"instantad/internal/geo"
)

// param is one row of the scenario parameter table: a leaf field of
// Scenario, nested ones included, with what its struct tags declare.
type param struct {
	index []int  // field path from Scenario
	name  string // Go path, "Popularity.RInc"
	key   string // key path in a scenario file, "popularity.r_inc"; "" if none
	flag  string // adsim flag; "" if none
	unit  string
	rng   string // accepted range as declared; "" if undeclared
	doc   string
	// lo and hi are the accepted range as closed bounds: an open end is
	// moved one ulp inwards, and a float's bounds never include ±Inf.
	lo, hi float64
}

// params is the table, read from Scenario's tags once.
var params = paramsOf(reflect.TypeOf(Scenario{}), nil, "", "")

// paramsOf lists the leaf fields of struct type t, which sits at index in
// Scenario under the Go path name and the key path key.
func paramsOf(t reflect.Type, index []int, name, key string) []param {
	var out []param
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(slices.Clone(index), i)
		k, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case f.Type == reflect.TypeOf(geo.Point{}):
			// IssueAt: written flat, under issueAt's keys.
			out = append(out, paramsOf(reflect.TypeOf(issueAt{}), idx, name+f.Name+".", key)...)
		case f.Type.Kind() == reflect.Struct:
			out = append(out, paramsOf(f.Type, idx, name+f.Name+".", key+k+".")...)
		default:
			p := param{
				index: idx, name: name + f.Name, key: key + k,
				flag: f.Tag.Get("flag"), unit: f.Tag.Get("unit"), rng: f.Tag.Get("range"), doc: f.Tag.Get("doc"),
				lo: math.Inf(-1), hi: math.Inf(1),
			}
			if k == "-" {
				p.key = ""
			}
			if p.rng != "" {
				p.lo, p.hi = parseRange(p.rng)
			}
			if f.Type.Kind() == reflect.Float64 {
				p.lo, p.hi = max(p.lo, -math.MaxFloat64), min(p.hi, math.MaxFloat64)
			}
			out = append(out, p)
		}
	}
	return out
}

// parseRange reads an interval such as "(0,inf)" or "[0,1)" as closed
// bounds. A malformed tag is a programming error and panics at init.
func parseRange(s string) (lo, hi float64) {
	var left, right rune
	_, err := fmt.Sscanf(s, "%c%g,%g%c", &left, &lo, &hi, &right)
	if err != nil || !strings.ContainsRune("[(", left) || !strings.ContainsRune("])", right) {
		panic(fmt.Sprintf("experiment: bad range tag %q", s))
	}
	if left == '(' {
		lo = math.Nextafter(lo, math.Inf(1))
	}
	if right == ')' {
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	return lo, hi
}

// check reports a numeric field outside the row's range.
func (p param) check(v reflect.Value) error {
	var x float64
	switch v.Kind() {
	case reflect.Float64:
		x = v.Float()
	case reflect.Int:
		x = float64(v.Int())
	default:
		return nil
	}
	switch {
	case x >= p.lo && x <= p.hi:
		return nil
	case math.IsNaN(x) || math.IsInf(x, 0):
		return fmt.Errorf("experiment: %s %v not finite", p.name, x)
	}
	return fmt.Errorf("experiment: %s %v outside %s", p.name, x, p.rng)
}

// scenarioFile is a Scenario as a file spells it: every field under its json
// tag, except IssueAt, written flat as issue_at_x and issue_at_y, and
// Popularity, an object present exactly when Enabled. Protocol and Eviction
// travel by name (their MarshalText).
type scenarioFile struct {
	Scenario
	issueAt
	Popularity *core.PopularityConfig `json:"popularity,omitempty"`
}

// issueAt is geo.Point under the keys Scenario.IssueAt is written as.
type issueAt struct {
	X float64 `json:"issue_at_x,omitempty" unit:"m" doc:"issuing location x; 0 with issue_at_y 0 means the field center"`
	Y float64 `json:"issue_at_y,omitempty" unit:"m" doc:"issuing location y"`
}

// Encode writes the scenario as indented JSON. Workers and Shards are never
// written; Decode still reads them from older files.
func Encode(w io.Writer, sc Scenario) error {
	f := scenarioFile{Scenario: sc, issueAt: issueAt(sc.IssueAt)}
	f.Workers, f.Shards = 0, 0
	if sc.Popularity.Enabled {
		f.Popularity = &sc.Popularity
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Decode reads a scenario from JSON and validates it. Unknown keys are
// rejected, so a typo in a file fails loudly instead of running the default;
// a file must name its protocol.
func Decode(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	f := scenarioFile{Scenario: Scenario{Protocol: -1}}
	if err := dec.Decode(&f); err != nil {
		return Scenario{}, fmt.Errorf("experiment: scenario file: %w", err)
	}
	if f.Protocol == -1 {
		return Scenario{}, fmt.Errorf("experiment: scenario file names no protocol")
	}
	sc := f.Scenario
	sc.IssueAt = geo.Point(f.issueAt)
	if f.Popularity != nil {
		sc.Popularity = *f.Popularity
		sc.Popularity.Enabled = true
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Save writes the scenario to a file.
func Save(path string, sc Scenario) error {
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Load reads a scenario file.
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("experiment: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
