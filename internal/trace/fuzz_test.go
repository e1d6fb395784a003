package trace

import (
	"strings"
	"testing"
)

// FuzzRead hardens the trace parser: arbitrary input must never panic, and
// anything accepted must summarize without error when non-empty.
func FuzzRead(f *testing.F) {
	f.Add(`{"t":1,"kind":"broadcast","peer":0,"ad":"ad-0/0","bytes":10,"x":1,"y":2}`)
	f.Add(`{"t":2,"kind":"neighbor_addr_changed","peer":3,"x":0,"y":0,"addr":"mem:7","neighbor":4,"detail":"mem:5"}`)
	f.Add("")
	f.Add("{not json}")
	f.Add(`{"t":1,"peer":0,"ad":"x"}`)
	f.Fuzz(func(t *testing.T, in string) {
		events, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(events) == 0 {
			return
		}
		if _, err := Summarize(events); err != nil {
			t.Fatalf("accepted trace failed to summarize: %v", err)
		}
	})
}
