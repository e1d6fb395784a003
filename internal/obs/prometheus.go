package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// formatFloat renders a float64 the way the Prometheus text format expects:
// shortest round-trippable decimal, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the text-format rules.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus emits every instrument in the Prometheus text exposition
// format (version 0.0.4), in registration order. It returns the first write
// error.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, in := range r.instruments() {
		if in.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", in.name, escapeHelp(in.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", in.name, in.kind)
		switch in.kind {
		case kindCounter, kindCounterFunc:
			fmt.Fprintf(bw, "%s %d\n", in.name, in.counterValue())
		case kindGauge, kindGaugeFunc:
			fmt.Fprintf(bw, "%s %s\n", in.name, formatFloat(in.gaugeValue()))
		case kindHistogram:
			raw := in.hist.snapshotBuckets()
			var cum uint64
			for i, c := range raw {
				cum += c
				le := "+Inf"
				if i < len(in.hist.bounds) {
					le = formatFloat(in.hist.bounds[i])
				}
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", in.name, le, cum)
			}
			fmt.Fprintf(bw, "%s_sum %s\n", in.name, formatFloat(in.hist.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", in.name, cum)
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Family is one parsed metric family from a text exposition — the validation
// view used by tests and the promcheck CLI.
type Family struct {
	Name    string
	Type    string             // counter | gauge | histogram | untyped
	Samples map[string]float64 // sample name (with labels) → value
}

// ParsePrometheus parses (and thereby validates) a Prometheus text
// exposition. It checks the structural rules a scraper cares about: every
// sample line has a parsable float value, every sample belongs to a # TYPE'd
// family, histogram families carry _bucket/_sum/_count series with
// cumulative non-decreasing buckets ending at +Inf, and counters are finite
// and non-negative. Families are returned keyed by name.
func ParsePrometheus(r io.Reader) (map[string]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	fams := make(map[string]Family)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				if len(fields) < 3 {
					return nil, fmt.Errorf("obs: line %d: malformed %s comment", lineNo, fields[1])
				}
				name := fields[2]
				fam, ok := fams[name]
				if !ok {
					fam = Family{Name: name, Type: "untyped", Samples: make(map[string]float64)}
				}
				if fields[1] == "TYPE" {
					if len(fields) != 4 {
						return nil, fmt.Errorf("obs: line %d: malformed TYPE comment", lineNo)
					}
					switch fields[3] {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return nil, fmt.Errorf("obs: line %d: unknown type %q", lineNo, fields[3])
					}
					fam.Type = fields[3]
				}
				fams[name] = fam
			}
			continue
		}
		// Sample line: name[{labels}] value [timestamp]
		sample := line
		var labels string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("obs: line %d: unbalanced braces", lineNo)
			}
			labels = line[i : j+1]
			sample = line[:i] + line[j+1:]
		}
		fields := strings.Fields(sample)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("obs: line %d: want 'name value [ts]', got %q", lineNo, line)
		}
		name := fields[0]
		if !validName(name) {
			return nil, fmt.Errorf("obs: line %d: invalid metric name %q", lineNo, name)
		}
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: bad value %q: %v", lineNo, fields[1], err)
		}
		famName := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name {
				if f, ok := fams[base]; ok && f.Type == "histogram" {
					famName = base
				}
				break
			}
		}
		fam, ok := fams[famName]
		if !ok {
			return nil, fmt.Errorf("obs: line %d: sample %q outside any # TYPE'd family", lineNo, name)
		}
		fam.Samples[name+labels] = val
		fams[famName] = fam
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, fam := range fams {
		if err := validateFamily(name, fam); err != nil {
			return nil, err
		}
	}
	return fams, nil
}

// validateFamily applies per-type semantic checks.
func validateFamily(name string, fam Family) error {
	switch fam.Type {
	case "counter":
		for s, v := range fam.Samples {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("obs: counter %s has invalid value %v", s, v)
			}
		}
	case "histogram":
		type bucket struct {
			le  float64
			val float64
		}
		var buckets []bucket
		var count, sum float64
		var haveCount, haveSum, haveInf bool
		for s, v := range fam.Samples {
			switch {
			case strings.HasPrefix(s, name+"_bucket{"):
				leStr := s[strings.Index(s, `le="`)+4:]
				leStr = leStr[:strings.IndexByte(leStr, '"')]
				if leStr == "+Inf" {
					haveInf = true
					buckets = append(buckets, bucket{math.Inf(1), v})
					continue
				}
				le, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("obs: histogram %s: bad le %q", name, leStr)
				}
				buckets = append(buckets, bucket{le, v})
			case s == name+"_count":
				count, haveCount = v, true
			case s == name+"_sum":
				sum, haveSum = v, true
			}
		}
		_ = sum
		if !haveInf || !haveCount || !haveSum {
			return fmt.Errorf("obs: histogram %s missing +Inf bucket, _sum or _count", name)
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		prev := 0.0
		for _, b := range buckets {
			if b.val < prev {
				return fmt.Errorf("obs: histogram %s buckets not cumulative at le=%v", name, b.le)
			}
			prev = b.val
		}
		if len(buckets) > 0 && buckets[len(buckets)-1].val != count {
			return fmt.Errorf("obs: histogram %s +Inf bucket %v ≠ count %v",
				name, buckets[len(buckets)-1].val, count)
		}
	}
	return nil
}
