// Package cli holds the flag-parsing and error-exit conventions shared by
// every command under cmd/. Before it existed each binary grew its own
// strconv loop for comma-separated lists and its own phrasing for the same
// validation failures; this package is the single copy.
//
// Exit-code convention (matching flag.Parse itself):
//
//	2 — the invocation is wrong: bad flag value, unparsable list
//	1 — the invocation was fine but the work failed: I/O error, bad scenario
package cli

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Floats parses a comma-separated list of float64 values. Blank items are
// rejected; with positive=true, zero or negative values are too (rates,
// radii and durations all share that constraint).
func Floats(s string, positive bool) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q in list %q", part, s)
		}
		if positive && v <= 0 {
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

// Fatal reports a runtime failure on stderr and exits 1 — the work failed.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// FatalIf is Fatal when err is non-nil, else a no-op.
func FatalIf(tool string, err error) {
	if err != nil {
		Fatal(tool, err)
	}
}

// Usage reports an invocation error on stderr and exits 2 — the flags were
// wrong, matching flag.Parse's own exit code.
func Usage(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(2)
}
