package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.count.Load(); got != 4 {
		t.Errorf("hist count = %d, want 4", got)
	}
	if math.Abs(h.Sum()-55.55) > 1e-9 {
		t.Errorf("hist sum = %v, want 55.55", h.Sum())
	}
	raw := h.snapshotBuckets()
	want := []uint64{1, 1, 1, 1}
	for i, c := range raw {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestRegistryIdempotentAndValidation(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "second")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	mustPanic(t, func() { r.Gauge("x_total", "kind clash") })
	mustPanic(t, func() { r.Counter("bad name", "") })
	mustPanic(t, func() { r.Counter("9starts_with_digit", "") })
	mustPanic(t, func() { r.Histogram("h", "", nil) })
	mustPanic(t, func() { r.Histogram("h2", "", []float64{2, 1}) })
}

// TestCounterFuncRoundTrips registers a counter read from a function and
// checks it exposes as a counter with the function's current value, in both
// the text format and the snapshot, and that its name cannot come back as
// another kind.
func TestCounterFuncRoundTrips(t *testing.T) {
	r := NewRegistry()
	var n atomic.Uint64
	r.CounterFunc("view_total", "counted elsewhere", n.Load)
	r.CounterFunc("view_total", "second registration", func() uint64 { return 99 })
	n.Store(41)
	n.Add(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	if f := fams["view_total"]; f.Type != "counter" || f.Samples["view_total"] != 42 {
		t.Errorf("view_total exposes as %+v, want counter 42", f)
	}
	if !strings.Contains(sb.String(), "# HELP view_total counted elsewhere\n") {
		t.Errorf("help string lost:\n%s", sb.String())
	}
	snap := r.Snapshot()
	if got, ok := snap.Counters["view_total"]; !ok || got != 42 {
		t.Errorf("snapshot counter = %d (present %v), want 42", got, ok)
	}
	if len(snap.Gauges) != 0 || len(snap.Names) != 1 {
		t.Errorf("snapshot = %+v, want one counter", snap)
	}
	mustPanic(t, func() { r.Counter("view_total", "") })
	mustPanic(t, func() { r.Gauge("view_total", "") })
	mustPanic(t, func() { r.GaugeFunc("view_total", "", func() float64 { return 0 }) })
	mustPanic(t, func() { r.Histogram("view_total", "", []float64{1}) })
	r.Counter("plain_total", "")
	mustPanic(t, func() { r.CounterFunc("plain_total", "", n.Load) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

// TestConcurrentInstruments exercises every instrument from many writer
// goroutines while readers snapshot and expose concurrently — the node's
// read-loop / scrape-loop shape. Run under -race.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_seconds", "", ExpBuckets(0.001, 10, 5))
	r.GaugeFunc("conc_func", "", func() float64 { return float64(c.Value()) })

	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	// Concurrent readers: snapshots and text exposition must be race-free.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = r.Snapshot()
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	const total = writers * perWriter
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != 1 {
		t.Errorf("gauge = %v, want 1", g.Value())
	}
	if got := h.count.Load(); got != total {
		t.Errorf("hist count = %d, want %d", got, total)
	}
}

// TestPrometheusRoundTrip is the golden structural test: the text exposition
// of a populated registry must parse back as valid Prometheus text with the
// expected families, types and values.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "requests served")
	c.Add(7)
	g := r.Gauge("app_temperature", "with a\nnewline in help")
	g.Set(-3.25)
	r.GaugeFunc("app_live", "live objects", func() float64 { return 42 })
	h := r.Histogram("app_latency_seconds", "request latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	fams, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if f := fams["app_requests_total"]; f.Type != "counter" || f.Samples["app_requests_total"] != 7 {
		t.Errorf("counter family = %+v", f)
	}
	if f := fams["app_temperature"]; f.Type != "gauge" || f.Samples["app_temperature"] != -3.25 {
		t.Errorf("gauge family = %+v", f)
	}
	if f := fams["app_live"]; f.Samples["app_live"] != 42 {
		t.Errorf("gauge-func family = %+v", f)
	}
	f := fams["app_latency_seconds"]
	if f.Type != "histogram" {
		t.Fatalf("histogram family = %+v", f)
	}
	if f.Samples[`app_latency_seconds_bucket{le="+Inf"}`] != 4 {
		t.Errorf("+Inf bucket = %v, want 4", f.Samples[`app_latency_seconds_bucket{le="+Inf"}`])
	}
	if f.Samples[`app_latency_seconds_bucket{le="0.1"}`] != 2 {
		t.Errorf("0.1 bucket = %v, want 2 (cumulative)", f.Samples[`app_latency_seconds_bucket{le="0.1"}`])
	}
	if f.Samples["app_latency_seconds_count"] != 4 {
		t.Errorf("count = %v", f.Samples["app_latency_seconds_count"])
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_type_family 3",                            // sample outside a family
		"# TYPE x counter\nx notafloat",               // unparsable value
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1", // missing _sum/_count
		"# TYPE x counter\nx -1",                      // negative counter
		"# TYPE x wat\nx 1",                           // unknown type
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3", // non-cumulative
	}
	for _, text := range bad {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("accepted invalid exposition:\n%s", text)
		}
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.Gauge("b", "").Set(1) // no help is fine
	h := r.Histogram("c_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	s := r.Snapshot()
	if len(s.Names) != 3 {
		t.Fatalf("names = %v", s.Names)
	}
	if s.Counters["a_total"] != 3 || s.Gauges["b"] != 1 {
		t.Errorf("snapshot values: %+v", s)
	}
	hs := s.Histograms["c_seconds"]
	if hs.Count != 2 || hs.Sum != 2.5 {
		t.Errorf("hist snapshot: %+v", hs)
	}
	if len(hs.Buckets) != 2 || hs.Buckets[0].Le != "1" || hs.Buckets[0].Count != 1 ||
		hs.Buckets[1].Le != "+Inf" || hs.Buckets[1].Count != 2 {
		t.Errorf("buckets: %+v", hs.Buckets)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Errorf("linear = %v", lin)
	}
	exp := ExpBuckets(0.5, 4, 3)
	if exp[0] != 0.5 || exp[1] != 2 || exp[2] != 8 {
		t.Errorf("exp = %v", exp)
	}
	mustPanic(t, func() { LinearBuckets(0, 0, 1) })
	mustPanic(t, func() { ExpBuckets(0, 2, 1) })
}

// BenchmarkHistogramObserve guards the hot-path cost: Observe must not
// allocate.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", ExpBuckets(1e-6, 10, 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-5)
	}
}

// BenchmarkCounterInc guards the counter hot path.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
