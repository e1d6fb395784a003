// Package testutil holds helpers that several packages' tests share. It is
// imported only from _test.go files.
package testutil

import "runtime"

// HeapAfterGC returns the live heap once garbage is gone.
func HeapAfterGC() int64 {
	runtime.GC()
	runtime.GC() // the first cycle's finalizers and sweep debt
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
