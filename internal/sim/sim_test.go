package sim

import (
	"math"
	"testing"
	"testing/quick"
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
