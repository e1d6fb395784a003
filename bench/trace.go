package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the public seam. Start and end are nanoseconds since the tracer started;
// Parent is the id of the span that caused this one, or -1 for a rep's root.
// Spans of one rep share Rep.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Rep      int                `json:"rep"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	SelfNs   int64              `json:"self_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the timed runs keep tracing off.
type tracer struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id (-1 when tracing is
// off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: t.rep,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return id
}

// end closes span id and attaches the counts measured at that boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.spans[id].Counts = counts
}

// mark returns the number of spans recorded so far, and rewind drops every
// span recorded since a mark: how a rep that turns out invalid is forgotten.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

func (t *tracer) rewind(mark int) {
	if t != nil {
		t.spans = t.spans[:mark]
	}
}

// durations returns the length in seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// fillSelfTimes sets every span's self time: its duration minus the part of
// that interval its child spans cover. Overlapping children are counted once
// and a child is clipped to its parent.
func fillSelfTimes(spans []span) {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	for i := range spans {
		s := &spans[i]
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.StartNs
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}
