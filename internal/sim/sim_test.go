package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"instantad/internal/obs"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Dispatched() != 3 {
		t.Errorf("Dispatched = %d", s.Dispatched())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	var at float64
	s.Schedule(2.5, func() { at = s.Now() })
	s.Run(10)
	if at != 2.5 {
		t.Errorf("event saw Now=%v, want 2.5", at)
	}
	if s.Now() != 10 {
		t.Errorf("clock = %v after Run(10), want 10", s.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Schedule(5, func() { fired++ })
	s.Run(3)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	s.Run(10)
	if fired != 2 {
		t.Errorf("fired = %d after second run, want 2", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run(10)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.Schedule(3, func() {})
}

func TestScheduleInvalidTimePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("scheduling at NaN did not panic")
		}
	}()
	s.Schedule(math.NaN(), func() {})
}

func TestAfter(t *testing.T) {
	s := New()
	var at float64
	s.Schedule(4, func() {
		s.After(2, func() { at = s.Now() })
	})
	s.RunAll()
	if at != 6 {
		t.Errorf("After fired at %v, want 6", at)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	if !e.Pending() {
		t.Error("event not pending after schedule")
	}
	s.Cancel(e)
	if e.Pending() || !e.canned {
		t.Error("event state wrong after cancel")
	}
	s.Cancel(e) // idempotent
	s.Cancel(nil)
	s.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelAfterFireNoop(t *testing.T) {
	s := New()
	e := s.Schedule(1, func() {})
	s.RunAll()
	s.Cancel(e) // must not panic or corrupt the heap
	s.Schedule(2, func() {})
	s.RunAll()
}

func TestReschedule(t *testing.T) {
	s := New()
	var at float64
	e := s.Schedule(1, func() { at = s.Now() })
	s.Reschedule(e, 7)
	s.RunAll()
	if at != 7 {
		t.Errorf("rescheduled event fired at %v, want 7", at)
	}
}

func TestRescheduleFiredEvent(t *testing.T) {
	s := New()
	count := 0
	e := s.Schedule(1, func() { count++ })
	s.Run(2)
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	s.Reschedule(e, 5) // re-arms a fired event
	s.RunAll()
	if count != 2 {
		t.Errorf("count = %d after re-arm, want 2", count)
	}
}

func TestRescheduleCancelled(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.Reschedule(e, 3)
	s.RunAll()
	if !fired {
		t.Error("rescheduled-after-cancel event did not fire")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(1, func() {
		order = append(order, "a")
		s.Schedule(1, func() { order = append(order, "b") }) // same instant
		s.Schedule(3, func() { order = append(order, "d") })
	})
	s.Schedule(2, func() { order = append(order, "c") })
	s.RunAll()
	want := []string{"a", "b", "c", "d"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var times []float64
	tk := s.Every(2, 3, func() { times = append(times, s.Now()) })
	s.Run(12)
	tk.Stop()
	want := []float64{2, 5, 8, 11}
	if len(times) != len(want) {
		t.Fatalf("ticks at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", times, want)
		}
	}
}

func TestTickerStopFromWithin(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = s.Every(1, 1, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.Run(100)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	tk.Stop() // idempotent
}

func TestTickerBadPeriodPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("Every with period 0 did not panic")
		}
	}()
	s.Every(0, 0, func() {})
}

func TestManyEventsStress(t *testing.T) {
	s := New()
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		s.Schedule(float64(i%97), func() { fired++ })
	}
	s.RunAll()
	if fired != n {
		t.Errorf("fired = %d, want %d", fired, n)
	}
}

func TestRandomScheduleOrderingProperty(t *testing.T) {
	// Random schedules (including same-time clusters and nested scheduling)
	// always dispatch in (time, insertion) order.
	f := func(delaysRaw []uint8) bool {
		s := New()
		type stamp struct {
			time float64
			seq  int
		}
		var fired []stamp
		seq := 0
		for _, d := range delaysRaw {
			at := float64(d % 50)
			mySeq := seq
			seq++
			s.Schedule(at, func() { fired = append(fired, stamp{s.Now(), mySeq}) })
		}
		s.RunAll()
		if len(fired) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].time < fired[i-1].time {
				return false
			}
			// FIFO among same-time events: insertion order preserved.
			if fired[i].time == fired[i-1].time && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomCancelConsistencyProperty(t *testing.T) {
	// Cancelling a random subset never fires those events and never
	// disturbs the rest.
	f := func(delaysRaw []uint8, cancelMask []bool) bool {
		s := New()
		fired := make(map[int]bool)
		events := make([]*Event, len(delaysRaw))
		for i, d := range delaysRaw {
			i := i
			events[i] = s.Schedule(float64(d%30), func() { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range events {
			if i < len(cancelMask) && cancelMask[i] {
				s.Cancel(events[i])
				cancelled[i] = true
			}
		}
		s.RunAll()
		for i := range events {
			if cancelled[i] && fired[i] {
				return false
			}
			if !cancelled[i] && !fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRunDrainStillAdvancesClock guards the Run contract: a drained queue
// advances the clock to until (and never to +Inf).
func TestRunDrainStillAdvancesClock(t *testing.T) {
	s := New()
	s.Schedule(2, func() {})
	s.Run(10)
	if s.Now() != 10 {
		t.Fatalf("now = %v, want 10", s.Now())
	}
	s.Schedule(11, func() {})
	s.RunAll()
	if math.IsInf(s.Now(), 1) {
		t.Fatal("RunAll left the clock at +Inf")
	}
	if s.Now() != 11 {
		t.Fatalf("now = %v, want 11", s.Now())
	}
}

// TestBatchContract checks the batch contract on a single instant, for a
// narrow batch and a wide one: the prepare hook runs once, before the first
// event, and the events run in scheduling (seq) order.
func TestBatchContract(t *testing.T) {
	for _, n := range []int{3, 300} {
		s := New()
		s.SetSlotWidth(1)
		preps := 0
		s.SetBatchPrepare(func() { preps++ })
		var ran []int
		for i := 0; i < n; i++ {
			i := i
			s.ScheduleSlot(1, func() {
				if preps != 1 {
					t.Errorf("n=%d: event %d ran after %d prepares, want 1", n, i, preps)
				}
				ran = append(ran, i)
			})
		}
		s.RunAll()
		if len(ran) != n || preps != 1 || s.Dispatched() != uint64(n) || s.Pending() != 0 || s.Now() != 1 {
			t.Fatalf("n=%d: %d events ran after %d prepares, dispatched %d, %d pending, now %v", n, len(ran), preps, s.Dispatched(), s.Pending(), s.Now())
		}
		for i, id := range ran {
			if id != i {
				t.Fatalf("n=%d: order diverges at %d: event %d ran", n, i, id)
			}
		}
	}
}

// slotMix schedules a deterministic pseudo-random mix of events on s, each
// appending its tag to a log, and returns the log. With slots set, two thirds
// of them are slot events; without, those are plain events at the same
// instants.
func slotMix(s *Simulator, seed int64, slots bool) *[]int {
	rnd := rand.New(rand.NewSource(seed))
	log := new([]int)
	tag := 0
	for round := 0; round < 40; round++ {
		slot := int64(rnd.Intn(20)) // coarse instants force multi-event batches
		n := 1 + rnd.Intn(6)
		if round%8 == 0 {
			n += 256 // some wide batches
		}
		for i := 0; i < n; i++ {
			tag++
			id := tag
			fn := func() { *log = append(*log, id) }
			if rnd.Intn(3) == 0 || !slots {
				s.Schedule(float64(slot), fn)
			} else {
				s.ScheduleSlot(slot, fn)
			}
		}
	}
	return log
}

// TestBatchMatchesSequential is the sim-level equivalence property: batching
// never changes the order anything runs in. The same schedule produces
// identical Now(), Dispatched() and run order whether two thirds of its
// events are slot events or all of them are plain Schedule events.
func TestBatchMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		ref := New()
		refLog := slotMix(ref, seed, false)
		ref.Run(1000)

		bat := New()
		bat.SetSlotWidth(1)
		batLog := slotMix(bat, seed, true)
		bat.Run(1000)

		if ref.Now() != bat.Now() {
			t.Fatalf("seed %d: Now %v (plain) != %v (slot)", seed, ref.Now(), bat.Now())
		}
		if ref.Dispatched() != bat.Dispatched() {
			t.Fatalf("seed %d: Dispatched %d (plain) != %d (slot)", seed, ref.Dispatched(), bat.Dispatched())
		}
		if !slices.Equal(*refLog, *batLog) {
			t.Fatalf("seed %d: run order %v (plain) != %v (slot)", seed, *refLog, *batLog)
		}
	}
}

// TestSplitBatchBoundary pins down that a plain event with a seq number
// between two same-instant slot events splits the batch without reordering
// anything — global dispatch order is always (time, seq).
func TestSplitBatchBoundary(t *testing.T) {
	s := New()
	s.SetSlotWidth(1)
	var log []int
	s.ScheduleSlot(1, func() { log = append(log, 1) })
	s.Schedule(1, func() { log = append(log, 2) })
	s.ScheduleSlot(1, func() { log = append(log, 3) })
	s.RunAll()
	if !slices.Equal(log, []int{1, 2, 3}) {
		t.Fatalf("dispatch order %v, want [1 2 3]", log)
	}
}

// TestBatchRescheduleCancel is timer surgery on a later member of the batch
// being dispatched, from inside an earlier one: a rescheduled event fires
// once, at its new instant — the same instant included — and a cancelled one
// never fires.
func TestBatchRescheduleCancel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		op    func(s *Simulator, e *Event)
		fires []float64
	}{
		{"reschedule to a later slot", func(s *Simulator, e *Event) { s.RescheduleSlot(e, 2) }, []float64{2}},
		{"reschedule to the same slot", func(s *Simulator, e *Event) { s.RescheduleSlot(e, 1) }, []float64{1}},
		{"reschedule off the grid", func(s *Simulator, e *Event) { s.Reschedule(e, 1.5) }, []float64{1.5}},
		{"cancel", func(s *Simulator, e *Event) { s.Cancel(e) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			s.SetSlotWidth(1)
			var later *Event
			var fires []float64
			s.ScheduleSlot(1, func() { tc.op(s, later) })
			later = s.ScheduleSlot(1, func() { fires = append(fires, s.Now()) })
			s.Run(10)
			if !slices.Equal(fires, tc.fires) || s.Dispatched() != uint64(1+len(tc.fires)) {
				t.Fatalf("the later member fired at %v (%d dispatched), want %v", fires, s.Dispatched(), tc.fires)
			}
		})
	}
}

// TestPendingCountsEveryStructure checks that Pending() and the
// sim_pending_events gauge count events wherever they wait: in the heap (a
// pooled event, a handle event, a slot past the calendar's horizon) and in
// the calendar.
func TestPendingCountsEveryStructure(t *testing.T) {
	s := New()
	s.SetSlotWidth(1)
	reg := obs.NewRegistry()
	s.SetRegistry(reg)
	nop := func() {}
	s.SchedulePooled(3, nop)       // heap
	s.Schedule(4, nop)             // heap
	s.ScheduleSlot(1, nop)         // calendar: the batch Run(1) takes
	s.ScheduleSlot(5, nop)         // calendar
	s.ScheduleSlot(calRing+5, nop) // heap: past the horizon
	if len(s.queue) != 3 || s.calN != 2 || s.Pending() != 5 {
		t.Fatalf("heap %d, calendar %d, Pending() %d; want 3, 2 and 5", len(s.queue), s.calN, s.Pending())
	}
	s.Run(1)
	if got := reg.Gauge("sim_pending_events", "").Value(); got != 4 || s.Pending() != 4 {
		t.Fatalf("after the batch at 1: gauge %v, Pending() %d; want 4 and 4", got, s.Pending())
	}
}
