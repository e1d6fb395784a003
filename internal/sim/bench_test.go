package sim

import "testing"

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

// BenchmarkSlotRound measures the gossip round on the slot calendar: 1 000
// round events on 64 slots, each committed and rescheduled one round ahead,
// the way every peer's round timer runs. One op is one round. It must not
// allocate.
func BenchmarkSlotRound(b *testing.B) {
	const peers, slots = 1000, 64
	s := New()
	s.SetSlotWidth(1.0 / slots)
	events := make([]*Event, peers)
	next := make([]int64, peers)
	nop := func() {}
	for i := range events {
		i := i
		next[i] = int64(i % slots)
		events[i] = s.ScheduleSlot(next[i], nop, func() {
			next[i] += slots
			s.RescheduleSlot(events[i], next[i])
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + 1)
	}
	b.StopTimer()
	if d := s.Dispatched(); d < uint64(b.N)*peers {
		b.Fatalf("%d events dispatched in %d rounds", d, b.N)
	}
}

// BenchmarkRescheduleSlotDeep is BenchmarkRescheduleDeep on the calendar:
// 10^4 pending slot events, a random one postponed by 1–174 slots (Formula
// 4's range at 64 slots a round). The clock does not move, so a slot wraps
// back into the calendar's horizon instead of leaving it. It must not
// allocate.
func BenchmarkRescheduleSlotDeep(b *testing.B) {
	const depth = 10_000
	s := New()
	s.SetSlotWidth(1.0 / 64)
	fn := func() {}
	events := make([]*Event, depth)
	slots := make([]int64, depth)
	rnd := uint64(1)
	next := func() uint64 { // xorshift, as in BenchmarkRescheduleDeep
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd
	}
	for i := range events {
		slots[i] = int64(next() % calRing)
		events[i] = s.ScheduleSlot(slots[i], fn, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := next() % depth
		slots[k] = (slots[k] + int64(1+next()%174)) % calRing
		s.RescheduleSlot(events[k], slots[k])
	}
}
