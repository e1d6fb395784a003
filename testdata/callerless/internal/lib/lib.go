// Package lib plants one case of each kind the callerless scan must tell
// apart.
package lib

import "fmt"

// Used is called by cmd/app.
func Used() string { return fmt.Sprint(Square{Side: 2}) }

// Orphan has no caller: flagged.
func Orphan() int { return 1 }

// Square is used by Used.
type Square struct{ Side float64 }

// String satisfies fmt.Stringer and nothing calls it by name: not flagged.
func (s Square) String() string { return "square" }

// Area is called only from lib_test.go: flagged.
func (s Square) Area() float64 { return s.Side * s.Side }

// Second is called only by the second module: not flagged.
func Second() int { return 2 }
