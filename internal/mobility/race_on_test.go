//go:build race

package mobility

// raceEnabled reports that the race detector is compiled in; its shadow
// memory and per-allocation bookkeeping make heap measurements meaningless.
const raceEnabled = true
