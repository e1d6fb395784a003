package sim

import (
	"math"
	"math/rand"
	"testing"
)

// The model's grid: slot k is the instant k·modelSlotW, and plain events land
// on multiples of modelQuantum, so half of them share an instant with a slot.
const (
	modelSlotW   = 0.5
	modelQuantum = 0.25
)

// queueModel drives a Simulator with random queue operations and checks it
// against a reference that keeps the pending set as a plain table and finds
// the next event by scanning for the smallest (time, seq).
type queueModel struct {
	t   *testing.T
	s   *Simulator
	rnd *rand.Rand

	seq    int // mirrors the simulator's: one per schedule or reschedule
	recs   []modelRec
	budget int // events the callbacks may still create

	last    *modelRec // the event fired last, for the same-instant count
	running *modelRec // the event whose callback is running, nil outside Run
	paths   *modelPaths
}

type modelRec struct {
	ev      *Event // nil for pooled events (no handle)
	time    float64
	seq     int
	pending bool
	slot    bool
}

// modelPaths counts how often the operations reached each path of the
// calendar; the test fails if a seed sweep misses one.
type modelPaths struct {
	withinBucket, acrossBuckets int // RescheduleSlot of a bucketed event
	pastHorizon, behindCursor   int // slot events the heap took
	cancelInBatch               int // a later member of the running batch
	sameInstant                 int // a slot and a plain event dispatched at one instant
}

// nowSlot is the first slot whose instant is not before now.
func (m *queueModel) nowSlot() int64 {
	return int64(math.Ceil(m.s.Now() / modelSlotW))
}

// randomSlot picks a slot from now on: mostly the next few, sometimes past
// the calendar's horizon.
func (m *queueModel) randomSlot() int64 {
	k := int64(m.rnd.Intn(12))
	if m.rnd.Intn(20) == 0 {
		k += calRing - 4
	}
	return m.nowSlot() + k
}

func (m *queueModel) schedule() {
	id := len(m.recs)
	rec := modelRec{seq: m.seq, pending: true}
	m.seq++
	m.recs = append(m.recs, rec)
	switch m.rnd.Intn(3) {
	case 0:
		at := m.s.Now() + modelQuantum*float64(m.rnd.Intn(24))
		m.recs[id].time = at
		m.recs[id].ev = m.s.Schedule(at, func() { m.fired(id) })
	case 1:
		at := m.s.Now() + modelQuantum*float64(m.rnd.Intn(24))
		m.recs[id].time = at
		m.s.SchedulePooled(at, func() { m.fired(id) })
	default:
		slot := m.randomSlot()
		m.recs[id].time = float64(slot) * modelSlotW
		m.recs[id].slot = true
		m.recs[id].ev = m.s.ScheduleSlot(slot, func() { m.fired(id) })
		m.sawSlot(m.recs[id].ev, slot)
	}
}

// sawSlot counts a slot event the heap took, by the reason it had to.
func (m *queueModel) sawSlot(e *Event, slot int64) {
	switch {
	case e.index < 0:
	case slot < m.s.cur:
		m.paths.behindCursor++
	case slot >= m.s.cur+calRing:
		m.paths.pastHorizon++
	default:
		m.t.Fatalf("slot %d inside the horizon [%d, %d) went to the heap", slot, m.s.cur, m.s.cur+calRing)
	}
}

// fired is every event's callback: the event must be the reference's
// minimum, at its recorded instant; then the callback itself operates on the
// queue.
func (m *queueModel) fired(id int) {
	best := -1
	for i, r := range m.recs {
		if r.pending && (best < 0 || r.time < m.recs[best].time ||
			r.time == m.recs[best].time && r.seq < m.recs[best].seq) {
			best = i
		}
	}
	rec := &m.recs[id]
	if best != id {
		m.t.Fatalf("dispatched event %d (t=%v seq=%d), reference says %d (t=%v seq=%d)",
			id, rec.time, rec.seq, best, m.recs[best].time, m.recs[best].seq)
	}
	if m.s.Now() != rec.time {
		m.t.Fatalf("event %d fired at %v, scheduled for %v", id, m.s.Now(), rec.time)
	}
	if l := m.last; l != nil && l.time == rec.time && l.slot != rec.slot {
		m.paths.sameInstant++
	}
	m.last, m.running = rec, rec
	rec.pending = false
	m.check()
	for k := m.rnd.Intn(3); k > 0; k-- {
		m.randomOp()
		m.check()
	}
	m.running = nil
}

// randomOp schedules, cancels or reschedules (earlier, later, to the same
// instant, or — for fired and cancelled events — anew). A handle event moves
// by Reschedule or, one time in four, onto the slot grid by RescheduleSlot;
// a slot event the other way round.
func (m *queueModel) randomOp() {
	op := m.rnd.Intn(4)
	if op == 0 || len(m.recs) == 0 {
		if m.budget > 0 {
			m.budget--
			m.schedule()
		}
		return
	}
	id := m.rnd.Intn(len(m.recs))
	rec := &m.recs[id]
	if rec.ev == nil {
		return // pooled: no handle to operate on
	}
	if op == 1 {
		if r := m.running; r != nil && r.slot && rec.slot && rec.pending && rec.time == r.time {
			m.paths.cancelInBatch++
		}
		m.s.Cancel(rec.ev)
		rec.pending = false
		return
	}
	if !rec.pending && m.budget <= 0 {
		return // re-arming creates an event; honour the budget so runs end
	}
	if !rec.pending {
		m.budget--
	}
	if rec.slot == (m.rnd.Intn(4) != 0) {
		m.rescheduleSlot(rec)
	} else {
		m.reschedule(rec)
	}
	rec.seq, rec.pending = m.seq, true
	m.seq++
}

// reschedule moves rec by Reschedule, on multiples of modelQuantum.
func (m *queueModel) reschedule(rec *modelRec) {
	now := m.s.Now()
	at := rec.time
	switch m.rnd.Intn(3) {
	case 0: // earlier, but not before now
		at = now + modelQuantum*math.Floor(m.rnd.Float64()*(math.Max(at, now)-now)/modelQuantum)
	case 1: // later
		at = math.Max(at, now) + modelQuantum*float64(1+m.rnd.Intn(20))
	default: // the same instant (now, for an event whose instant has passed)
		at = math.Max(at, now)
	}
	m.s.Reschedule(rec.ev, at)
	rec.time = at
}

// rescheduleSlot moves rec by RescheduleSlot: to its own slot when that has
// not passed, else to a random one.
func (m *queueModel) rescheduleSlot(rec *modelRec) {
	slot := m.randomSlot()
	own := int64(rec.time / modelSlotW)
	if float64(own)*modelSlotW == rec.time && own >= m.nowSlot() && m.rnd.Intn(2) == 0 {
		slot = own
	}
	if b := rec.ev.index; b <= inBucket && rec.pending {
		if slot == own {
			m.paths.withinBucket++
		} else {
			m.paths.acrossBuckets++
		}
	}
	m.s.RescheduleSlot(rec.ev, slot)
	m.sawSlot(rec.ev, slot)
	rec.time = float64(slot) * modelSlotW
}

// check asserts the structural invariants: heap order with index = slot;
// bucket links, each bucket one slot inside the horizon in seq order; every
// handle event in the heap slot or bucket its index names, and −1 for the
// rest; and the pending count.
func (m *queueModel) check() {
	s := m.s
	q := s.queue
	for i, e := range q {
		if e.index != i {
			m.t.Fatalf("queue slot %d holds an event with index %d", i, e.index)
		}
		if i > 0 && e.before(q[(i-1)/heapArity]) {
			m.t.Fatalf("heap order broken at slot %d", i)
		}
	}
	bucketed := make(map[*Event]bool)
	for b := range s.cal {
		var prev *Event
		for e := s.cal[b].head; e != nil; e = e.next {
			slot := int64(math.Round(e.time / s.slotW))
			if e.prev != prev || e.index != inBucket-b || e.pooled {
				m.t.Fatalf("bucket %d: event has prev %p (want %p), index %d, pooled %v",
					b, e.prev, prev, e.index, e.pooled)
			}
			if float64(slot)*s.slotW != e.time || int(slot&calMask) != b || slot < s.cur || slot >= s.cur+calRing {
				m.t.Fatalf("bucket %d holds an event at %v, slot %d; cursor %d", b, e.time, slot, s.cur)
			}
			if prev != nil && (prev.time != e.time || prev.seq >= e.seq) {
				m.t.Fatalf("bucket %d mixes instants or is out of seq order", b)
			}
			bucketed[e] = true
			prev = e
		}
		if s.cal[b].tail != prev {
			m.t.Fatalf("bucket %d: tail is not its last event", b)
		}
	}
	if len(bucketed) != s.calN {
		m.t.Fatalf("calendar holds %d events, counted %d", len(bucketed), s.calN)
	}
	pending := 0
	for id, r := range m.recs {
		if r.pending {
			pending++
		}
		if r.ev == nil {
			continue
		}
		i := r.ev.index
		switch {
		case i >= len(q) || i >= 0 && q[i] != r.ev:
			m.t.Fatalf("event %d: index %d is not its heap slot", id, i)
		case i < notQueued && !bucketed[r.ev]:
			m.t.Fatalf("event %d: index %d, but it is in no bucket", id, i)
		case !r.pending && i != notQueued:
			m.t.Fatalf("event %d is not pending but has index %d", id, i)
		case r.pending && i == notQueued:
			m.t.Fatalf("event %d is pending but not queued", id)
		case r.ev.Pending() != (i != notQueued):
			m.t.Fatalf("event %d: Pending() = %v with index %d", id, r.ev.Pending(), i)
		}
	}
	if s.Pending() != pending {
		m.t.Fatalf("Pending() = %d, reference has %d", s.Pending(), pending)
	}
}

// TestQueueMatchesSortedReference is the queue's model test: whatever mix of
// Schedule, SchedulePooled, ScheduleSlot, Cancel, Reschedule and
// RescheduleSlot runs — from outside the loop and from plain and slot
// callbacks — events fire in ascending (time, seq), each once, across the heap
// and the calendar, and the bookkeeping of both stays exact.
func TestQueueMatchesSortedReference(t *testing.T) {
	paths := new(modelPaths)
	for seed := int64(1); seed <= 30; seed++ {
		m := &queueModel{t: t, s: New(), rnd: rand.New(rand.NewSource(seed)), budget: 600, paths: paths}
		m.s.SetSlotWidth(modelSlotW)
		for round := 0; round < 40; round++ {
			for k := m.rnd.Intn(12); k > 0; k-- {
				m.randomOp()
				m.check()
			}
			m.s.Run(m.s.Now() + float64(m.rnd.Intn(4)))
			m.check()
		}
		m.s.RunAll()
		m.check()
		if m.s.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after RunAll", seed, m.s.Pending())
		}
	}
	t.Logf("paths taken: %+v", *paths)
	for name, n := range map[string]int{
		"reschedule within a bucket": paths.withinBucket, "reschedule across buckets": paths.acrossBuckets,
		"slot past the horizon": paths.pastHorizon, "slot behind the cursor": paths.behindCursor,
		"cancel inside a batch": paths.cancelInBatch, "slot and plain event at one instant": paths.sameInstant,
	} {
		if n == 0 {
			t.Errorf("no operation took the path %q", name)
		}
	}
}

// TestRescheduleInvalidTimePanics is the regression test for the unchecked
// Reschedule: NaN passed its only guard (at < now is false for NaN) and a NaN
// key, comparing false against everything, silently broke heap order for
// every later event. All four entry points now share one check, made before
// anything is touched.
func TestRescheduleInvalidTimePanics(t *testing.T) {
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		s := New()
		var order []int
		var events []*Event
		for i := 0; i < 20; i++ {
			i := i
			events = append(events, s.Schedule(float64(1+(i*7)%10), func() { order = append(order, i) }))
		}
		fired := s.Schedule(0, func() {})
		s.Run(0)
		for _, e := range []*Event{events[3], fired} { // a pending and a fired event
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Reschedule(%v) did not panic", at)
					}
				}()
				s.Reschedule(e, at)
			}()
		}
		if s.Pending() != 20 || events[3].time != 1+(3*7)%10 || fired.Pending() {
			t.Fatalf("rejected Reschedule(%v) changed the queue: pending=%d", at, s.Pending())
		}
		s.RunAll()
		for k := 1; k < len(order); k++ {
			a, b := order[k-1], order[k]
			ta, tb := (a*7)%10, (b*7)%10
			if ta > tb || ta == tb && a > b {
				t.Fatalf("dispatch order after rejected Reschedule(%v): %v", at, order)
			}
		}
		if len(order) != 20 {
			t.Fatalf("%d of 20 events fired", len(order))
		}
	}
}

// TestInvalidArgumentPanics is the regression test for the negative-form
// guards NaN and +Inf slipped through: Every(1, NaN) and Every(1, +Inf) were
// accepted and then panicked from inside Run at the first tick, and Run(NaN)
// ignored its horizon (next.time > NaN is always false) and ran on until the
// queue emptied. SetSlotWidth takes the same guard, and a width once set is
// fixed. Each row must panic at the call itself and leave the queue as it
// was.
func TestInvalidArgumentPanics(t *testing.T) {
	nop := func() {}
	for _, tc := range []struct {
		name string
		call func(s *Simulator)
	}{
		{"Every period NaN", func(s *Simulator) { s.Every(1, math.NaN(), nop) }},
		{"Every period +Inf", func(s *Simulator) { s.Every(1, math.Inf(1), nop) }},
		{"Every period -Inf", func(s *Simulator) { s.Every(1, math.Inf(-1), nop) }},
		{"Every period 0", func(s *Simulator) { s.Every(1, 0, nop) }},
		{"Every delay NaN", func(s *Simulator) { s.Every(math.NaN(), 1, nop) }},
		{"Run NaN", func(s *Simulator) { s.Run(math.NaN()) }},
		{"SetSlotWidth 0", func(s *Simulator) { s.SetSlotWidth(0) }},
		{"SetSlotWidth -1", func(s *Simulator) { s.SetSlotWidth(-1) }},
		{"SetSlotWidth NaN", func(s *Simulator) { s.SetSlotWidth(math.NaN()) }},
		{"SetSlotWidth +Inf", func(s *Simulator) { s.SetSlotWidth(math.Inf(1)) }},
		{"SetSlotWidth -Inf", func(s *Simulator) { s.SetSlotWidth(math.Inf(-1)) }},
		{"SetSlotWidth twice, another width", func(s *Simulator) {
			s.SetSlotWidth(1)
			s.SetSlotWidth(1) // the same width again is fine
			s.SetSlotWidth(2)
		}},
		{"ScheduleSlot without a width", func(s *Simulator) { s.ScheduleSlot(1, nop) }},
		{"ScheduleSlot nil callback", func(s *Simulator) { s.SetSlotWidth(1); s.ScheduleSlot(1, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			fired := 0
			s.Schedule(1, func() { fired++ })
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", tc.name)
					}
				}()
				tc.call(s)
			}()
			if fired != 0 || s.Pending() != 1 {
				t.Fatalf("%s: %d events fired and %d are pending, want 0 and 1", tc.name, fired, s.Pending())
			}
		})
	}
}
