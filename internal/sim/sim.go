// Package sim implements the discrete-event simulation engine that replaces
// NS-2 in this reproduction. It provides a time-ordered event queue with
// deterministic tie-breaking, cancellable and reschedulable timers, and a
// simple run loop.
//
// Time is a float64 in seconds from the start of the simulation. Events
// scheduled for the same instant fire in scheduling order (FIFO), which keeps
// runs bit-for-bit reproducible.
//
// Events on the slot grid (ScheduleSlot) wait in a calendar of per-slot FIFO
// buckets (Brown, "Calendar queues", CACM 1988), every other event in a 4-ary
// heap. A pop takes the lower of the two heads on (time, seq), so where an
// event waits never changes when it fires.
package sim

import (
	"fmt"
	"math"
	"time"

	"instantad/internal/obs"
)

// Event is a scheduled callback. The zero value is meaningless; events are
// created by Simulator.Schedule and friends.
type Event struct {
	time       float64
	seq        uint64
	index      int // heap slot when ≥ 0
	fn         func()
	decide     func() // decision half of a split event; nil for plain events
	next, prev *Event // bucket links
	canned     bool
	pooled     bool // recycled into the free list after dispatch
}

// Event.index below zero: not queued, or inBucket - b in calendar bucket b.
const notQueued, inBucket = -1, -2

// Time returns the instant the event is (or was) scheduled for.
func (e *Event) Time() float64 { return e.time }

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.canned }

// Pending reports whether the event is still in the queue awaiting dispatch.
func (e *Event) Pending() bool { return e.index != notQueued && !e.canned }

// heapArity is the heap's branching factor: four children halve a binary
// heap's depth, and a sift-down's extra comparisons read adjacent slots.
const heapArity = 4

// eventQueue is a heapArity-ary min-heap on (time, seq) that keeps every
// queued event's index equal to its slot. seq is unique, so (time, seq) is a
// total order and the pop sequence does not depend on the heap's shape.
type eventQueue []*Event

func (e *Event) before(o *Event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// up sifts slot i toward the root until its parent is not after it.
func (q eventQueue) up(i int) {
	e := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = e
	e.index = i
}

// down sifts slot i toward the leaves until no child is before it.
func (q eventQueue) down(i int) {
	e := q[i]
	for {
		first := i*heapArity + 1
		if first >= len(q) {
			break
		}
		best := first
		for c := first + 1; c < first+heapArity && c < len(q); c++ {
			if q[c].before(q[best]) {
				best = c
			}
		}
		if !q[best].before(e) {
			break
		}
		q[i] = q[best]
		q[i].index = i
		i = best
	}
	q[i] = e
	e.index = i
}

func (q *eventQueue) push(e *Event) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

// remove takes the event in slot i out of the queue.
func (q *eventQueue) remove(i int) {
	h := *q
	e := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if i < n {
		h[i] = last
		if i > 0 && last.before(h[(i-1)/heapArity]) {
			h.up(i)
		} else {
			h.down(i)
		}
	}
	e.index = notQueued
}

// fifo is an intrusive doubly linked queue of events. Every append carries
// the largest seq issued so far, so a fifo is in seq order from head to tail.
type fifo struct{ head, tail *Event }

func (f *fifo) push(e *Event) {
	e.prev, e.next = f.tail, nil
	if f.tail != nil {
		f.tail.next = e
	} else {
		f.head = e
	}
	f.tail = e
}

func (f *fifo) remove(e *Event) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		f.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		f.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// calRing is the calendar's length in slots (8 KB of buckets): at 64 slots a
// round it covers a round's timers, e rounds of postponement and all but e⁻⁸
// of the async scans' exponential gaps.
const (
	calRing = 512
	calMask = calRing - 1
)

// Simulator owns the virtual clock and the pending-event queue.
type Simulator struct {
	now        float64
	seq        uint64
	queue      eventQueue
	dispatched uint64
	stopped    bool
	free       []*Event // recycled pooled events (see SchedulePooled)

	// The slot calendar: bucket slot&calMask holds that slot's events in seq
	// order. Every bucketed slot lies in [cur, cur+calRing), so a bucket never
	// mixes slots and the first non-empty bucket from cur holds the earliest.
	slotW float64
	cur   int64
	calN  int
	cal   [calRing]fifo

	// Same-instant batch dispatch for split events (see ScheduleSlot).
	prepare func()   // hook before each batch's decision phase
	batch   []*Event // the split events of the batch being dispatched

	// Observability (see SetRegistry), nil when uninstrumented: wall-clock
	// side channels that never influence event order.
	ins *simInstruments
}

// simInstruments are the executor's registry instruments.
type simInstruments struct {
	events, batches                                *obs.Counter
	batchSize, prepareTime, decideTime, commitTime *obs.Histogram
	pending                                        *obs.Gauge
}

// New returns an empty simulator with the clock at 0.
func New() *Simulator { return &Simulator{} }

// SetRegistry instruments the executor with sim_* metrics: event and batch
// counters, batch-size and per-phase wall-clock histograms, and the queue
// depth. Pass nil to detach. Results stay bit-identical either way.
func (s *Simulator) SetRegistry(reg *obs.Registry) {
	if reg == nil {
		s.ins = nil
		return
	}
	phase := obs.ExpBuckets(1e-7, 4, 12)
	s.ins = &simInstruments{
		events:  reg.Counter("sim_events_dispatched_total", "events executed by the simulator"),
		batches: reg.Counter("sim_batches_total", "split-event batches dispatched"),
		batchSize: reg.Histogram("sim_batch_size", "split events per same-instant batch",
			obs.ExpBuckets(1, 2, 14)),
		prepareTime: reg.Histogram("sim_phase_prepare_seconds", "wall-clock time of the batch-prepare hook", phase),
		decideTime:  reg.Histogram("sim_phase_decide_seconds", "wall-clock time of the decision phase", phase),
		commitTime:  reg.Histogram("sim_phase_commit_seconds", "wall-clock time of the commit phase", phase),
		pending:     reg.Gauge("sim_pending_events", "events queued at the last batch boundary"),
	}
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Dispatched returns the number of events executed so far.
func (s *Simulator) Dispatched() uint64 { return s.dispatched }

// Pending returns the number of events queued, in the heap and the calendar.
func (s *Simulator) Pending() int { return len(s.queue) + s.calN }

// Schedule enqueues fn to run at absolute time at. Scheduling before Now
// panics: it always indicates a protocol bug, and clamping would mask it.
// Scheduling exactly at Now fires after the current event completes.
func (s *Simulator) Schedule(at float64, fn func()) *Event {
	s.checkTime("schedule", at)
	e := &Event{time: at, fn: fn, index: notQueued}
	s.enqueue(e)
	return e
}

// checkTime panics unless at is a finite instant not before Now. Every entry
// point into the queue goes through it: a NaN key would break its order.
func (s *Simulator) checkTime(op string, at float64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: %s at %v before now %v", op, at, s.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: %s at invalid time %v", op, at))
	}
}

// enqueue heap-queues e at e.time behind everything already scheduled for
// that instant (a fresh sequence number).
func (s *Simulator) enqueue(e *Event) {
	e.seq = s.seq
	s.seq++
	s.queue.push(e)
}

// After enqueues fn to run delay seconds from now. Negative delays panic.
func (s *Simulator) After(delay float64, fn func()) *Event {
	return s.Schedule(s.now+delay, fn)
}

// SchedulePooled enqueues fn at absolute time at, like Schedule, but draws
// the event from an internal free list and recycles it after dispatch, so
// steady-state scheduling is allocation-free. No handle is returned, so the
// event cannot be cancelled or rescheduled. Timing and FIFO tie-breaking are
// identical to Schedule.
func (s *Simulator) SchedulePooled(at float64, fn func()) {
	s.checkTime("schedule", at)
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.time, e.fn, e.canned = at, fn, false
	} else {
		e = &Event{time: at, fn: fn, pooled: true}
	}
	s.enqueue(e)
}

// SetSlotWidth fixes the width w of the grid that ScheduleSlot and
// RescheduleSlot place events on: slot k is the instant float64(k)*w. It
// panics unless w is finite and positive, and on a second call with another
// width, which would move every event already on the grid.
func (s *Simulator) SetSlotWidth(w float64) {
	if !(w > 0) || math.IsInf(w, 1) || s.slotW != 0 && s.slotW != w {
		panic(fmt.Sprintf("sim: slot width %v (set: %v), want one finite positive width", w, s.slotW))
	}
	s.slotW = w
}

// ScheduleSlot enqueues a two-phase event at slot's instant (see
// SetSlotWidth). All split events that share an instant are dispatched as one
// batch: first every event's decide callback runs, in scheduling (seq) order,
// then every commit callback, in the same order. So a decide sees the state
// as it stood before any commit of its batch: decide records what the event
// will do (into state the event's owner keeps), commit applies it — every
// mutation other batch members can see, and every draw from a shared RNG
// stream, belongs there.
//
// Time validation, FIFO tie-breaking and Cancel behave exactly as for
// Schedule; RescheduleSlot moves the event and keeps its decide.
func (s *Simulator) ScheduleSlot(slot int64, decide, commit func()) *Event {
	if decide == nil || commit == nil {
		panic("sim: split event with nil phase")
	}
	e := &Event{fn: commit, decide: decide, index: notQueued}
	s.RescheduleSlot(e, slot)
	return e
}

// RescheduleSlot moves e to slot's instant behind everything already
// scheduled for it, as Reschedule does: to the tail of the slot's bucket when
// the slot is inside the calendar's horizon, else into the heap. The cursor
// only moves forward while the calendar holds events; once it is empty, the
// cursor drops to the slot of Now, so the slots to come are inside again.
func (s *Simulator) RescheduleSlot(e *Event, slot int64) {
	if s.slotW == 0 {
		panic("sim: slot event before SetSlotWidth")
	}
	at := float64(slot) * s.slotW
	s.checkTime("slot event", at)
	e.canned = false
	s.unlink(e)
	e.time, e.seq = at, s.seq
	s.seq++
	if s.calN == 0 {
		s.cur = min(slot, int64(s.now/s.slotW))
	}
	if d := slot - s.cur; d >= 0 && d < calRing {
		b := int(slot & calMask)
		s.cal[b].push(e)
		e.index = inBucket - b
		s.calN++
		return
	}
	s.queue.push(e)
}

// unlink takes e out of the heap or its bucket, if it is queued.
func (s *Simulator) unlink(e *Event) {
	switch {
	case e.index >= 0:
		s.queue.remove(e.index)
	case e.index != notQueued:
		s.cal[inBucket-e.index].remove(e)
		s.calN--
		e.index = notQueued
	}
}

// head returns the earliest pending event on (time, seq), the lower of the
// heap's root and the calendar's first bucket head; nil or a later event means
// nothing is due by limit. The cursor passes empty buckets only up to limit
// and the heap's root, so every slot it passes lies at or before the next
// event to fire, and no later schedule can want its bucket.
func (s *Simulator) head(limit float64) *Event {
	var best *Event
	if len(s.queue) > 0 {
		best = s.queue[0]
	}
	if s.calN == 0 {
		return best
	}
	if best != nil && best.time < limit {
		limit = best.time
	}
	for {
		if e := s.cal[s.cur&calMask].head; e != nil {
			if best == nil || e.before(best) {
				return e
			}
			return best
		}
		if float64(s.cur)*s.slotW > limit {
			return best
		}
		s.cur++
	}
}

// SetBatchPrepare installs a hook that runs at the start of every split-event
// batch, before any decide, to bring what the decides read up to date (e.g.
// refresh a spatial index) at the batch's instant. A nil fn removes it.
func (s *Simulator) SetBatchPrepare(fn func()) { s.prepare = fn }

// Cancel removes a pending event from the queue. Cancelling an event that has
// already fired, or cancelling twice, is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.canned {
		return
	}
	e.canned = true
	s.unlink(e)
}

// Reschedule moves a pending event to a new absolute time, preserving FIFO
// order among same-time events by assigning a fresh sequence number. If the
// event already fired or was cancelled, Reschedule schedules it anew.
func (s *Simulator) Reschedule(e *Event, at float64) {
	s.checkTime("reschedule", at)
	e.canned = false
	s.unlink(e)
	e.time = at
	s.enqueue(e)
}

// Stop makes the current Run return after the event being dispatched. Inside
// a split-event batch, the batch's remaining commits still run (they share
// one instant) and Run returns at the batch boundary.
func (s *Simulator) Stop() { s.stopped = true }

// Run dispatches events in time order until the queue empties or the next
// event lies strictly beyond until; then the clock is set to until, so
// repeated Runs advance monotonically. When Stop ends the run early the clock
// stays at the stopped event's time. A NaN until panics: no event time
// compares greater, so the run would ignore its horizon. +Inf is RunAll.
func (s *Simulator) Run(until float64) {
	if math.IsNaN(until) {
		panic("sim: Run until NaN")
	}
	s.stopped = false
	for !s.stopped {
		next := s.head(until)
		if next == nil || next.time > until {
			break
		}
		if next.decide != nil {
			s.runBatch(next)
			continue
		}
		s.unlink(next)
		s.now = next.time
		s.dispatched++
		if s.ins != nil {
			s.ins.events.Inc()
		}
		fn := next.fn
		if next.pooled {
			next.fn = nil // release the closure before it runs; recycle after
			s.free = append(s.free, next)
		}
		fn()
	}
	if !s.stopped && s.now < until && !math.IsInf(until, 1) {
		s.now = until
	}
}

// runBatch dispatches the maximal run of split heads that starts at first and
// shares its instant, from the heap and the calendar alike: prepare hook,
// decides in seq order, then commits in seq order. Plain events at the same
// instant bound the batch on both sides, preserving global seq order.
func (s *Simulator) runBatch(first *Event) {
	t := first.time
	s.now = t
	s.batch = s.batch[:0]
	for e := first; e != nil && e.decide != nil && e.time == t; e = s.head(t) {
		s.unlink(e)
		s.batch = append(s.batch, e)
	}
	ins := s.ins
	var mark time.Time
	if ins != nil {
		ins.batches.Inc()
		ins.batchSize.Observe(float64(len(s.batch)))
		ins.pending.Set(float64(s.Pending()))
		mark = time.Now()
	}
	if s.prepare != nil {
		s.prepare()
	}
	if ins != nil {
		now := time.Now()
		ins.prepareTime.Observe(now.Sub(mark).Seconds())
		mark = now
	}
	for _, e := range s.batch {
		if !e.canned {
			e.decide()
		}
	}
	if ins != nil {
		now := time.Now()
		ins.decideTime.Observe(now.Sub(mark).Seconds())
		mark = now
	}
	committed := 0
	for _, e := range s.batch {
		if e.canned || e.index != notQueued {
			// Cancelled mid-batch, or an earlier commit put this member back
			// in the queue. The reschedule wins: committing the stale batch
			// copy too would fire the event at the old and the new instant.
			continue
		}
		s.dispatched++
		committed++
		e.fn()
	}
	if ins != nil {
		ins.commitTime.Observe(time.Since(mark).Seconds())
		ins.events.Add(uint64(committed))
	}
}

// RunAll dispatches events until the queue is empty or Stop is called; a
// self-rescheduling timer makes it loop forever.
func (s *Simulator) RunAll() {
	s.Run(math.Inf(1))
}

// Every schedules fn to run at now+delay and then every period seconds until
// the returned Ticker is stopped. fn runs before the next occurrence is
// scheduled, so it may stop the ticker from within. A period that is not
// finite and positive panics here rather than at the first tick.
func (s *Simulator) Every(delay, period float64, fn func()) *Ticker {
	if !(period > 0) || math.IsInf(period, 1) {
		panic(fmt.Sprintf("sim: Every with period %v, want finite and positive", period))
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.ev = s.After(delay, t.tick)
	return t
}

// Ticker is a repeating timer created by Simulator.Every.
type Ticker struct {
	sim     *Simulator
	period  float64
	fn      func()
	ev      *Event
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		// Reuse the fired event; Reschedule takes a fresh sequence number, so
		// FIFO tie-breaking is the same as scheduling anew.
		t.sim.Reschedule(t.ev, t.sim.now+t.period)
	}
}

// Stop cancels the ticker. It is safe to call from within the ticker's own
// callback and is idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.sim.Cancel(t.ev)
}
