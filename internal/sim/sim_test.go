package sim

import (
	"math"
	"math/rand"
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
	if e.Pending() || !e.Cancelled() {
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

func TestStop(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(1, func() { fired++; s.Stop() })
	s.Schedule(2, func() { fired++ })
	s.Run(10)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (stopped)", fired)
	}
	// Clock does not jump to until after Stop... it should remain at the
	// stop point so callers can observe where the run halted.
	if s.Now() != 10 && s.Now() != 1 {
		t.Errorf("unexpected clock %v", s.Now())
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

// TestRunStopFreezesClock is the regression test for the Stop clock bug:
// Run used to set now = until even when Stop() ended the run early,
// contradicting the documented "clock finishes at min(until, last event
// time)" contract.
func TestRunStopFreezesClock(t *testing.T) {
	s := New()
	lateFired := false
	s.Schedule(3, func() { s.Stop() })
	s.Schedule(7, func() { lateFired = true })
	s.Run(100)
	if got := s.Now(); got != 3 {
		t.Fatalf("clock after Stop = %v, want 3 (the stopped event's time)", got)
	}
	if lateFired {
		t.Fatal("event past the Stop point dispatched in the stopped run")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending after Stop = %d, want 1", s.Pending())
	}
	// A later Run resumes from the frozen clock and completes normally,
	// including the drain-to-until behavior.
	s.Run(100)
	if !lateFired {
		t.Fatal("resumed run skipped the remaining event")
	}
	if got := s.Now(); got != 100 {
		t.Fatalf("clock after resumed run = %v, want 100", got)
	}
}

// TestRunStopFreezesClockInfinite checks the RunAll flavor: a stop during
// RunAll must leave the clock at the stopping event, not at +Inf (that was
// already true — the +Inf guard — but pin it alongside the finite case).
func TestRunStopFreezesClockInfinite(t *testing.T) {
	s := New()
	s.Schedule(5, func() { s.Stop() })
	s.RunAll()
	if got := s.Now(); got != 5 {
		t.Fatalf("clock after Stop in RunAll = %v, want 5", got)
	}
}

// TestRunDrainStillAdvancesClock guards the other half of the Run contract
// after the Stop fix: with no Stop, a drained queue still advances the
// clock to until (and never to +Inf).
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

// TestScheduleSplitPhases checks the batch contract on a single instant, for
// a narrow batch and a wide one: the prepare hook runs once before any
// decide, every decide runs before any commit, and decides and commits each
// run in scheduling order.
func TestScheduleSplitPhases(t *testing.T) {
	for _, n := range []int{3, 300} {
		s := New()
		s.SetSlotWidth(1)
		preps := 0
		s.SetBatchPrepare(func() { preps++ })
		var decided, committed []int
		for i := 0; i < n; i++ {
			i := i
			s.ScheduleSlot(1, func() {
				if preps != 1 {
					t.Errorf("decide %d ran after %d prepares, want 1", i, preps)
				}
				if len(committed) != 0 {
					t.Errorf("n=%d: decide %d ran after commit %d", n, i, committed[0])
				}
				decided = append(decided, i)
			}, func() {
				if len(decided) != n {
					t.Fatalf("n=%d: commit %d ran after %d decides", n, i, len(decided))
				}
				committed = append(committed, i)
			})
		}
		s.RunAll()
		if len(committed) != n {
			t.Fatalf("n=%d: %d commits", n, len(committed))
		}
		for i := range committed {
			if decided[i] != i || committed[i] != i {
				t.Fatalf("n=%d: order diverges at %d: decided %d, committed %d", n, i, decided[i], committed[i])
			}
		}
		if s.Dispatched() != uint64(n) {
			t.Fatalf("dispatched = %d, want %d", s.Dispatched(), n)
		}
	}
}

// splitMix schedules a deterministic pseudo-random mix of events on s, each
// appending its tag to a commit log, and returns the log. With split set, two
// thirds of them are split events, which verify their own decide ran first;
// without, those are plain events doing the same work in one callback.
func splitMix(s *Simulator, seed int64, split bool, t *testing.T) *[]int {
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
			if rnd.Intn(3) == 0 || !split {
				s.Schedule(float64(slot), func() { *log = append(*log, id) })
				continue
			}
			decided := false
			s.ScheduleSlot(slot, func() { decided = true }, func() {
				if !decided {
					t.Errorf("split event %d committed before its decide", id)
				}
				*log = append(*log, id)
			})
		}
	}
	return log
}

// TestBatchMatchesSequential is the sim-level equivalence property: batching
// changes when decides run, never the order anything commits in. The same
// schedule produces identical Now(), Dispatched() and commit order whether
// two thirds of its events are split or all of them are plain Schedule
// events.
func TestBatchMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		ref := New()
		refLog := splitMix(ref, seed, false, t)
		ref.Run(1000)

		bat := New()
		bat.SetSlotWidth(1)
		batLog := splitMix(bat, seed, true, t)
		bat.Run(1000)

		if ref.Now() != bat.Now() {
			t.Fatalf("seed %d: Now %v (plain) != %v (split)", seed, ref.Now(), bat.Now())
		}
		if ref.Dispatched() != bat.Dispatched() {
			t.Fatalf("seed %d: Dispatched %d (plain) != %d (split)", seed, ref.Dispatched(), bat.Dispatched())
		}
		if len(*refLog) != len(*batLog) {
			t.Fatalf("seed %d: commit log lengths %d vs %d", seed, len(*refLog), len(*batLog))
		}
		for i := range *refLog {
			if (*refLog)[i] != (*batLog)[i] {
				t.Fatalf("seed %d: commit order diverges at %d: %d vs %d",
					seed, i, (*refLog)[i], (*batLog)[i])
			}
		}
	}
}

// TestSplitRescheduleCancel exercises timer surgery on split events: a
// rescheduled split event keeps both phases; a cancelled one fires neither.
func TestSplitRescheduleCancel(t *testing.T) {
	s := New()
	s.SetSlotWidth(1)
	var decides, commits int
	e := s.ScheduleSlot(1, func() { decides++ }, func() { commits++ })
	s.RescheduleSlot(e, 5)
	dead := s.ScheduleSlot(5, func() { t.Error("cancelled decide ran") },
		func() { t.Error("cancelled commit ran") })
	s.Cancel(dead)
	s.RunAll()
	if decides != 1 || commits != 1 {
		t.Fatalf("decides=%d commits=%d, want 1/1", decides, commits)
	}
	if s.Now() != 5 {
		t.Fatalf("now = %v, want 5", s.Now())
	}
}

// TestSplitBatchBoundary pins down that a plain event with a seq number
// between two same-instant split events splits the batch without reordering
// commits — global dispatch order is always (time, seq).
func TestSplitBatchBoundary(t *testing.T) {
	s := New()
	s.SetSlotWidth(1)
	var log []int
	s.ScheduleSlot(1, func() {}, func() { log = append(log, 1) })
	s.Schedule(1, func() { log = append(log, 2) })
	s.ScheduleSlot(1, func() {}, func() { log = append(log, 3) })
	s.RunAll()
	if len(log) != 3 || log[0] != 1 || log[1] != 2 || log[2] != 3 {
		t.Fatalf("dispatch order %v, want [1 2 3]", log)
	}
}

// TestBatchRescheduleOfLaterMemberWins is the regression test for the
// in-batch double-fire: when a commit reschedules a *different* split event
// that belongs to the same in-flight batch, the event is back in the queue
// for its new instant — but the commit loop used to dispatch the stale batch
// copy as well, firing the event at both the old and the new time. The
// reschedule must win: exactly one commit, at the new instant.
func TestBatchRescheduleOfLaterMemberWins(t *testing.T) {
	s := New()
	s.SetSlotWidth(1)
	var bEv *Event
	var bTimes []float64
	s.ScheduleSlot(1, func() {}, func() { s.RescheduleSlot(bEv, 2) })
	bEv = s.ScheduleSlot(1, func() {}, func() { bTimes = append(bTimes, s.Now()) })
	s.Run(10)
	if len(bTimes) != 1 || bTimes[0] != 2 {
		t.Fatalf("rescheduled batch member committed at %v, want exactly once at t=2", bTimes)
	}
}

// TestBatchRescheduleToSameInstant pins the degenerate flavor: rescheduling
// a later batch member to the *current* instant moves it to a fresh batch at
// the same time (new seq) rather than committing it twice. The event's
// decide legitimately reruns in the new batch; its commit must not.
func TestBatchRescheduleToSameInstant(t *testing.T) {
	s := New()
	s.SetSlotWidth(1)
	var bEv *Event
	commits, decides := 0, 0
	s.ScheduleSlot(1, func() {}, func() { s.RescheduleSlot(bEv, 1) })
	bEv = s.ScheduleSlot(1, func() { decides++ }, func() { commits++ })
	s.Run(10)
	if commits != 1 {
		t.Fatalf("same-instant rescheduled member committed %d times, want 1", commits)
	}
	if decides != 2 {
		t.Fatalf("same-instant rescheduled member decided %d times, want 2 (once per batch)", decides)
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
	s.SchedulePooled(3, nop)            // heap
	s.Schedule(4, nop)                  // heap
	s.ScheduleSlot(1, nop, nop)         // calendar: the batch Run(1) takes
	s.ScheduleSlot(5, nop, nop)         // calendar
	s.ScheduleSlot(calRing+5, nop, nop) // heap: past the horizon
	if len(s.queue) != 3 || s.calN != 2 || s.Pending() != 5 {
		t.Fatalf("heap %d, calendar %d, Pending() %d; want 3, 2 and 5", len(s.queue), s.calN, s.Pending())
	}
	s.Run(1)
	if got := reg.Gauge("sim_pending_events", "").Value(); got != 4 || s.Pending() != 4 {
		t.Fatalf("after the batch at 1: gauge %v, Pending() %d; want 4 and 4", got, s.Pending())
	}
}
