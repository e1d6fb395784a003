//go:build race

package testutil

// RaceEnabled reports that the race detector is compiled in; its shadow
// memory and per-allocation bookkeeping make heap measurements meaningless.
const RaceEnabled = true
