package sim

import (
	"math"
	"math/rand"
	"testing"
)

// queueModel drives a Simulator with random queue operations and checks it
// against a reference that keeps the pending set as a plain table and finds
// the next event by scanning for the smallest (time, seq).
type queueModel struct {
	t   *testing.T
	s   *Simulator
	rnd *rand.Rand

	seq     int // mirrors the simulator's: one per schedule or reschedule
	recs    []modelRec
	budget  int  // events the callbacks may still create
	inBatch bool // a commit is running: batch members are popped but pending
}

type modelRec struct {
	ev      *Event // nil for pooled events (no handle)
	time    float64
	seq     int
	pending bool
	split   bool
	decides int
}

func (m *queueModel) schedule(at float64) {
	id := len(m.recs)
	rec := modelRec{time: at, seq: m.seq, pending: true}
	m.seq++
	m.recs = append(m.recs, rec)
	switch m.rnd.Intn(3) {
	case 0:
		m.recs[id].ev = m.s.Schedule(at, func() { m.fired(id) })
	case 1:
		m.s.SchedulePooled(at, func() { m.fired(id) })
	default:
		m.recs[id].split = true
		m.recs[id].ev = m.s.ScheduleSplit(at,
			func() { m.recs[id].decides++ },
			func() {
				m.inBatch = true
				m.fired(id)
				m.inBatch = false
			})
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
	if rec.split && rec.decides == 0 {
		m.t.Fatalf("split event %d committed without a decide", id)
	}
	rec.pending, rec.decides = false, 0
	for k := m.rnd.Intn(3); k > 0; k-- {
		m.randomOp()
	}
	m.check()
}

// randomOp schedules, cancels or reschedules (earlier, later, to the same
// instant, or — for fired and cancelled events — anew).
func (m *queueModel) randomOp() {
	now := m.s.Now()
	op := m.rnd.Intn(4)
	if op == 0 || len(m.recs) == 0 {
		if m.budget > 0 {
			m.budget--
			m.schedule(now + float64(m.rnd.Intn(6)))
		}
		return
	}
	id := m.rnd.Intn(len(m.recs))
	rec := &m.recs[id]
	if rec.ev == nil {
		return // pooled: no handle to operate on
	}
	if op == 1 {
		m.s.Cancel(rec.ev)
		rec.pending = false
		return
	}
	if !rec.pending && m.budget <= 0 {
		return // re-arming creates an event; honour the budget so runs end
	}
	at := rec.time
	switch m.rnd.Intn(3) {
	case 0: // earlier, but not before now
		at = now + math.Floor(m.rnd.Float64()*(math.Max(at, now)-now))
	case 1: // later
		at = math.Max(at, now) + float64(1+m.rnd.Intn(5))
	default: // the same instant (now, for an event whose instant has passed)
		at = math.Max(at, now)
	}
	if !rec.pending {
		m.budget--
	}
	m.s.Reschedule(rec.ev, at)
	rec.time, rec.seq, rec.pending = at, m.seq, true
	m.seq++
}

// check asserts the structural invariants: heap order, index = slot for
// queued events and −1 for the rest, and the pending count.
func (m *queueModel) check() {
	q := m.s.queue
	for i, e := range q {
		if e.index != i {
			m.t.Fatalf("queue slot %d holds an event with index %d", i, e.index)
		}
		if i > 0 && e.before(q[(i-1)/heapArity]) {
			m.t.Fatalf("heap order broken at slot %d", i)
		}
	}
	pending := 0
	for id, r := range m.recs {
		if r.pending {
			pending++
		}
		if r.ev == nil {
			continue
		}
		switch {
		case r.ev.index >= len(q) || r.ev.index >= 0 && q[r.ev.index] != r.ev:
			m.t.Fatalf("event %d: index %d is not its slot", id, r.ev.index)
		case !r.pending && r.ev.index != -1:
			m.t.Fatalf("event %d is not pending but has index %d", id, r.ev.index)
		case r.pending && !m.inBatch && r.ev.index < 0:
			m.t.Fatalf("event %d is pending but not queued", id)
		case r.ev.Pending() != (r.ev.index >= 0):
			m.t.Fatalf("event %d: Pending() = %v with index %d", id, r.ev.Pending(), r.ev.index)
		}
	}
	// Inside a commit the batch's later members are pending but popped.
	if !m.inBatch && m.s.Pending() != pending {
		m.t.Fatalf("Pending() = %d, reference has %d", m.s.Pending(), pending)
	}
}

// TestQueueMatchesSortedReference is the queue's model test: whatever mix of
// Schedule, SchedulePooled, ScheduleSplit, Cancel and Reschedule runs — from
// outside the loop, from plain callbacks and from commits — events fire in
// ascending (time, seq), each once, and the index bookkeeping stays exact.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		m := &queueModel{t: t, s: New(), rnd: rand.New(rand.NewSource(seed)), budget: 600}
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
		if s.Pending() != 20 || events[3].Time() != 1+(3*7)%10 || fired.Pending() {
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
