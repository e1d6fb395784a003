// Package cli holds the list-flag parsing and the exit-code convention
// shared by every command under cmd/. Before it existed each binary grew its own
// strconv loop for comma-separated lists and its own phrasing for the same
// validation failures; this package is the single copy.
//
// Exit-code convention (matching flag.Parse itself), returned by each
// command's run function:
//
//	0 — success, or -h
//	2 — the invocation is wrong: bad flag value, unparsable list, or a
//	    scenario or config the flags make that does not validate
//	1 — the invocation was fine but the work failed: I/O error, a run that
//	    failed
package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Floats parses a comma-separated list of finite float64 values. Blank
// items, NaN and ±Inf are rejected; with positive=true, zero and negative
// values are too (rates, radii and durations all share that constraint).
func Floats(s string, positive bool) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q in list %q", part, s)
		}
		if !(v > math.Inf(-1) && v < math.Inf(1)) {
			return nil, fmt.Errorf("value %v in list %q is not finite", v, s)
		}
		if positive && !(v > 0) {
			return nil, fmt.Errorf("value %v in list %q must be > 0", v, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// Ints parses a comma-separated list of ints; an empty string yields nil
// (callers treat that as "use the default sweep").
func Ints(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad value %q in list %q", part, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// Strings splits a comma-separated list, trimming whitespace and dropping
// empty items, so "a, b,,c" parses the way every -peers/-seeds flag expects.
func Strings(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
