//go:build !race

package mobility

const raceEnabled = false
