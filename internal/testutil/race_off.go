//go:build !race

package testutil

const RaceEnabled = false
