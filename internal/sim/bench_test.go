package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// BenchmarkSimScheduleCancel measures the schedule→cancel churn pattern the
// protocols generate (per-entry timers armed and torn down constantly).
func BenchmarkSimScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(s.Now()+1, fn)
		s.Cancel(e)
	}
}

// BenchmarkSimScheduleDispatch measures the schedule→dispatch cycle: one
// event scheduled and fired per iteration.
func BenchmarkSimScheduleDispatch(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.Now()+1, fn)
		s.Run(s.Now() + 2)
	}
}

// BenchmarkTicker measures a self-rescheduling periodic timer — the
// per-peer gossip-round driver.
func BenchmarkTicker(b *testing.B) {
	s := New()
	ticks := 0
	tk := s.Every(1, 1, func() { ticks++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + 1)
	}
	b.StopTimer()
	tk.Stop()
	if ticks == 0 {
		b.Fatal("ticker never fired")
	}
}

// BenchmarkRescheduleDeep measures moving one timer later in a deep queue —
// Optimization Mechanism 2's postponement, the most frequent queue operation
// of a many-ads run: 10^4 pending events, a random one pushed back per
// iteration. It must not allocate.
func BenchmarkRescheduleDeep(b *testing.B) {
	const depth = 10_000
	s := New()
	fn := func() {}
	events := make([]*Event, depth)
	rnd := uint64(1)
	next := func() uint64 { // xorshift: cheap, and no allocation to blame on the queue
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd
	}
	for i := range events {
		events[i] = s.Schedule(float64(next()%1000), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[next()%depth]
		s.Reschedule(e, e.Time()+float64(1+next()%8))
	}
}

var decideSink float64

// BenchmarkBatchDispatch is the evidence for poolBatchMin: one decision
// phase, inline on the dispatching goroutine against fanned out to a
// GOMAXPROCS-wide pool, by batch size. The decide body costs what
// core's decideEntry does (1–2 µs: a few math.Pow and a neighbor query). ns/op
// is per batch; the crossover is where pool drops below inline.
func BenchmarkBatchDispatch(b *testing.B) {
	decide := func(int) {
		x := 0.5
		for k := 0; k < 24; k++ {
			x = math.Pow(0.7, 1+x)
		}
		if x < 0 { // never: keeps the loop alive without a store the workers would race on
			decideSink = x
		}
	}
	for _, size := range []int{8, 32, 64, 128, 256, 512, 1024, 2048} {
		for _, mode := range []string{"inline", "pool"} {
			b.Run(fmt.Sprintf("%s/size=%d", mode, size), func(b *testing.B) {
				s := New()
				s.SetWorkers(runtime.GOMAXPROCS(0))
				for i := 0; i < size; i++ {
					s.batch = append(s.batch, &Event{decide: decide, shard: int32(i), index: -1})
				}
				run := s.decideInline
				if mode == "pool" {
					run = s.decideOnPool
					defer s.closePool()
				}
				run() // start the pool outside the timed region
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
