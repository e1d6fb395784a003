// Package obs is the unified observability layer: a dependency-free metrics
// registry holding counters, gauges and fixed-bucket histograms, with two
// exposition formats — the Prometheus text format (see prometheus.go) and a
// JSON snapshot.
//
// Design constraints, in order:
//
//   - Lock-free hot path. Counter.Add, Gauge.Set and Histogram.Observe are
//     a handful of atomic operations and never allocate, so instruments can
//     sit on the simulator's batch dispatch loop and the live node's datagram
//     path without disturbing the 0 allocs/op benchmarks.
//   - Deterministic exposition. Instruments expose in registration order and
//     histogram buckets are fixed at construction, so two runs of the same
//     program produce byte-identical /metrics layouts (values aside).
//   - No dependencies. Everything is stdlib; the Prometheus text format is
//     small enough to emit (and parse, for tests) by hand.
//
// One Registry serves one endpoint — an adnode's /metrics, campaignd's, a
// simulation's exit dump — and every layer registers its instruments under a
// layer prefix (node_*, discovery_*, sim_*). A layer that keeps its own
// counters (a live node's plain atomics) registers a view over them with
// CounterFunc and GaugeFunc, and only when something serves it. Instrument
// constructors are idempotent: asking for an existing name returns the
// existing instrument, so wiring code does not need to coordinate
// registration order.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution instrument. Buckets are upper
// bounds (Prometheus "le" semantics); an implicit +Inf bucket catches the
// rest. Observe is lock-free: one binary search plus three atomic adds.
type Histogram struct {
	bounds []float64       // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts by
// linear interpolation inside the bucket that holds the target rank — the
// same estimate Prometheus's histogram_quantile produces. The first bucket
// interpolates from zero; a rank landing in the +Inf bucket reports the
// largest finite bound (the histogram cannot resolve beyond it). With no
// observations Quantile returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: unresolvable above the last finite bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshotBuckets returns the per-bucket (non-cumulative) counts, the +Inf
// bucket last.
func (h *Histogram) snapshotBuckets() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+width, … — the helper
// for latency-style histograms with a known scale.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		panic("obs: LinearBuckets needs n ≥ 1 and width > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start·factor, start·factor², … —
// the helper for heavy-tailed distributions (delivery times, backoffs).
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n ≥ 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// kind enumerates instrument types for exposition.
type kind uint8

const (
	kindCounter kind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// instrument is one registered metric.
type instrument struct {
	name string
	help string
	kind kind

	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

// Registry holds a set of named instruments. Instrument lookups and
// registrations take a mutex (cold path); reads and writes of the
// instruments themselves are atomic (hot path).
type Registry struct {
	mu    sync.Mutex
	order []*instrument
	index map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*instrument)}
}

// validName enforces the Prometheus metric-name charset.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		letter := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !letter && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// register inserts or retrieves the named instrument, panicking on a name
// registered as a different kind — that is always a wiring bug.
func (r *Registry) register(name, help string, k kind) (*instrument, bool) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in := r.index[name]; in != nil {
		if in.kind != k && !(in.kind == kindGauge && k == kindGaugeFunc || in.kind == kindGaugeFunc && k == kindGauge) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, k, in.kind))
		}
		return in, false
	}
	in := &instrument{name: name, help: help, kind: k}
	r.order = append(r.order, in)
	r.index[name] = in
	return in, true
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	in, fresh := r.register(name, help, kindCounter)
	if fresh {
		in.counter = &Counter{}
	}
	return in.counter
}

// Gauge returns the named settable gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	in, fresh := r.register(name, help, kindGauge)
	if fresh {
		in.gauge = &Gauge{}
	}
	return in.gauge
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — for counts another structure already keeps. fn must be safe to call
// from any goroutine and must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if in, fresh := r.register(name, help, kindCounterFunc); fresh {
		in.counterFunc = fn
	}
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — for values another structure already maintains (table sizes, map
// lengths). fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	in, fresh := r.register(name, help, kindGaugeFunc)
	if fresh || in.gaugeFunc == nil {
		in.kind = kindGaugeFunc
		in.gaugeFunc = fn
	}
}

// Histogram returns the named histogram, creating it with the given upper
// bounds on first use. Bounds must be sorted ascending and non-empty; they
// are fixed for the histogram's lifetime (deterministic exposition). The
// histogram keeps the slice, not a copy, so histograms on the same bounds
// share them: the caller must not modify it afterwards.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	in, fresh := r.register(name, help, kindHistogram)
	if fresh {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %q with no buckets", name))
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
		}
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		in.hist = h
	}
	return in.hist
}

// instruments returns a stable copy of the registration order.
func (r *Registry) instruments() []*instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*instrument(nil), r.order...)
}

// counterValue evaluates a counter instrument of either flavor.
func (in *instrument) counterValue() uint64 {
	if in.kind == kindCounterFunc {
		return in.counterFunc()
	}
	return in.counter.Value()
}

// gaugeValue evaluates a gauge instrument of either flavor.
func (in *instrument) gaugeValue() float64 {
	if in.kind == kindGaugeFunc && in.gaugeFunc != nil {
		return in.gaugeFunc()
	}
	if in.gauge != nil {
		return in.gauge.Value()
	}
	return 0
}

// BucketCount is one histogram bucket in a snapshot: the upper bound (as the
// Prometheus "le" label string, so +Inf survives JSON) and the cumulative
// count of observations ≤ that bound. The +Inf bucket is last.
type BucketCount struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Buckets []BucketCount `json:"buckets"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// JSON-encodable for the adsim/campaign exit dumps and the adnode snapshot
// surface. Maps keep lookups convenient; Names preserves registration order.
type Snapshot struct {
	Names      []string                     `json:"names"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	ins := r.instruments()
	s := Snapshot{
		Names:      make([]string, 0, len(ins)),
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, in := range ins {
		s.Names = append(s.Names, in.name)
		switch in.kind {
		case kindCounter, kindCounterFunc:
			s.Counters[in.name] = in.counterValue()
		case kindGauge, kindGaugeFunc:
			s.Gauges[in.name] = in.gaugeValue()
		case kindHistogram:
			hs := HistogramSnapshot{Sum: in.hist.Sum()}
			raw := in.hist.snapshotBuckets()
			var cum uint64
			for i, c := range raw {
				cum += c
				le := "+Inf"
				if i < len(in.hist.bounds) {
					le = formatFloat(in.hist.bounds[i])
				}
				hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: cum})
			}
			hs.Count = cum
			s.Histograms[in.name] = hs
		}
	}
	return s
}
