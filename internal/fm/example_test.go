package fm_test

import (
	"fmt"

	"instantad/internal/fm"
)

// The advertising protocol's use of FM sketches: count distinct interested
// users duplicate-insensitively, merging copies that traveled different
// paths.
func ExampleSketch() {
	copyA := fm.New(8, 32, 1) // one message copy's sketches
	copyB := fm.New(8, 32, 1) // another copy, other side of the area
	for user := uint64(0); user < 60; user++ {
		copyA.Add(user * 2654435761)
	}
	for user := uint64(40); user < 100; user++ { // 20 users overlap
		copyB.Add(user * 2654435761)
	}
	_ = copyA.Merge(copyB) // OR-merge: estimates the union, never the sum
	fmt.Println("union estimate in [50, 200]:", copyA.Estimate() >= 50 && copyA.Estimate() <= 200)
	fmt.Println("wire size:", copyA.WireSize(), "bytes")
	// Output:
	// union estimate in [50, 200]: true
	// wire size: 42 bytes
}
