// Package sim implements the discrete-event simulation engine that replaces
// NS-2 in this reproduction. It provides a time-ordered event queue with
// deterministic tie-breaking, cancellable and reschedulable timers, and a
// simple run loop.
//
// Time is a float64 in seconds from the start of the simulation. Events
// scheduled for the same instant fire in scheduling order (FIFO), which keeps
// runs bit-for-bit reproducible.
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
	time   float64
	seq    uint64
	index  int // queue slot, -1 when not queued
	fn     func()
	decide func() // decision half of a split event; nil for plain events
	canned bool
	pooled bool // recycled into the free list after dispatch
}

// Time returns the instant the event is (or was) scheduled for.
func (e *Event) Time() float64 { return e.time }

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.canned }

// Pending reports whether the event is still in the queue awaiting dispatch.
func (e *Event) Pending() bool { return e.index >= 0 && !e.canned }

// heapArity is the event queue's branching factor. Four children per node
// halve a binary heap's depth, and the extra comparisons of a sift-down read
// adjacent slots.
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

// remove takes the event in slot i out of the queue and returns it.
func (q *eventQueue) remove(i int) *Event {
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
	e.index = -1
	return e
}

// Simulator owns the virtual clock and the pending-event queue.
type Simulator struct {
	now        float64
	seq        uint64
	queue      eventQueue
	dispatched uint64
	stopped    bool
	free       []*Event // recycled pooled events (see SchedulePooled)

	// Same-instant batch dispatch for split events (see ScheduleSplit).
	prepare func()   // hook before each batch's decision phase
	batch   []*Event // the split events of the batch being dispatched

	// Observability (see SetRegistry). ins is nil when uninstrumented; all
	// measurements are wall-clock side channels that never influence event
	// order, so instrumented and bare runs stay bit-identical.
	ins *simInstruments
}

// simInstruments are the executor's registry instruments.
type simInstruments struct {
	events      *obs.Counter
	batches     *obs.Counter
	batchSize   *obs.Histogram
	prepareTime *obs.Histogram
	decideTime  *obs.Histogram
	commitTime  *obs.Histogram
	pending     *obs.Gauge
}

// New returns an empty simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// SetRegistry instruments the executor with sim_* metrics: dispatched-event
// and batch counters, batch-size and per-phase wall-clock histograms, and
// the queue-depth gauge. Pass nil to detach. Instruments observe real elapsed
// time, never virtual time, and have no effect on dispatch order — results
// stay bit-identical with or without them.
func (s *Simulator) SetRegistry(reg *obs.Registry) {
	if reg == nil {
		s.ins = nil
		return
	}
	s.ins = &simInstruments{
		events: reg.Counter("sim_events_dispatched_total",
			"events executed by the simulator"),
		batches: reg.Counter("sim_batches_total",
			"split-event batches dispatched"),
		batchSize: reg.Histogram("sim_batch_size",
			"split events per same-instant batch",
			obs.ExpBuckets(1, 2, 14)),
		prepareTime: reg.Histogram("sim_phase_prepare_seconds",
			"wall-clock time of the batch-prepare hook",
			obs.ExpBuckets(1e-7, 4, 12)),
		decideTime: reg.Histogram("sim_phase_decide_seconds",
			"wall-clock time of the decision phase",
			obs.ExpBuckets(1e-7, 4, 12)),
		commitTime: reg.Histogram("sim_phase_commit_seconds",
			"wall-clock time of the commit phase",
			obs.ExpBuckets(1e-7, 4, 12)),
		pending: reg.Gauge("sim_pending_events",
			"events queued at the last batch boundary"),
	}
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Dispatched returns the number of events executed so far.
func (s *Simulator) Dispatched() uint64 { return s.dispatched }

// Pending returns the number of events currently queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it always indicates a protocol bug, and silently
// clamping would mask causality violations. Scheduling exactly at Now is
// allowed and fires after the current event completes.
func (s *Simulator) Schedule(at float64, fn func()) *Event {
	s.checkTime("schedule", at)
	e := &Event{time: at, fn: fn, index: -1}
	s.enqueue(e)
	return e
}

// checkTime panics unless at is a finite instant not before Now. Every entry
// point that puts a key into the queue goes through it: a NaN compares false
// against everything and would silently break heap order for all later
// events.
func (s *Simulator) checkTime(op string, at float64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: %s at %v before now %v", op, at, s.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: %s at invalid time %v", op, at))
	}
}

// enqueue queues e at e.time behind everything already scheduled for that
// instant (a fresh sequence number).
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
// steady-state scheduling is allocation-free. No handle is returned — the
// event cannot be cancelled or rescheduled, and the caller must not retain
// any reference to it. Timing and FIFO tie-breaking are identical to
// Schedule.
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

// ScheduleSplit enqueues a two-phase event at absolute time at. All split
// events that share an instant are dispatched as one batch: first every
// event's decide callback runs, in scheduling (seq) order, then every commit
// callback, in the same order. So a decide sees the state as it stood before
// any commit of its batch: decide records what the event will do (into state
// the event's owner keeps), commit applies it — every mutation other batch
// members can see, and every draw from a shared RNG stream, belongs there.
//
// Time validation, FIFO tie-breaking, Cancel and Reschedule behave exactly as
// for Schedule; a rescheduled split event keeps its decide.
func (s *Simulator) ScheduleSplit(at float64, decide, commit func()) *Event {
	s.checkTime("schedule", at)
	if decide == nil || commit == nil {
		panic("sim: split event with nil phase")
	}
	e := &Event{time: at, fn: commit, decide: decide, index: -1}
	s.enqueue(e)
	return e
}

// SetBatchPrepare installs a hook that runs at the start of every
// split-event batch, before any decide. Use it to bring structures the
// decides read up to date (e.g. refresh a spatial index) at the batch's
// instant, whichever decide would have touched them first. A nil fn removes
// the hook.
func (s *Simulator) SetBatchPrepare(fn func()) { s.prepare = fn }

// Cancel removes a pending event from the queue. Cancelling an event that has
// already fired, or cancelling twice, is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.canned {
		return
	}
	e.canned = true
	if e.index >= 0 {
		s.queue.remove(e.index)
	}
}

// Reschedule moves a pending event to a new absolute time, preserving FIFO
// order among same-time events by assigning a fresh sequence number. If the
// event already fired or was cancelled, Reschedule schedules it anew. A
// pending event is re-keyed where it sits and sifted once: the fresh seq is
// the largest issued, so the key grew unless the instant moved earlier.
func (s *Simulator) Reschedule(e *Event, at float64) {
	s.checkTime("reschedule", at)
	e.canned = false
	if e.index < 0 {
		e.time = at
		s.enqueue(e)
		return
	}
	earlier := at < e.time
	e.time, e.seq = at, s.seq
	s.seq++
	if earlier {
		s.queue.up(e.index)
	} else {
		s.queue.down(e.index)
	}
}

// Stop makes the current Run invocation return after the event being
// dispatched completes. When called from inside a split-event batch, the
// batch's remaining commits still run (they share one virtual instant) and
// Run returns at the batch boundary.
func (s *Simulator) Stop() { s.stopped = true }

// Run dispatches events in time order until the queue empties or the next
// event lies strictly beyond until. The clock finishes at min(until, last
// event time); it is set to until when the queue drains early so that
// repeated Run calls advance monotonically. When Stop ends the run early the
// clock stays frozen at the stopped event's time — it does NOT jump to
// until.
func (s *Simulator) Run(until float64) {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		next := s.queue[0]
		if next.time > until {
			break
		}
		if next.decide != nil {
			s.runBatch()
			continue
		}
		s.queue.remove(0)
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

// runBatch dispatches the maximal run of split events at the head of the
// queue sharing one instant: prepare hook, decides in seq order, then commits
// in seq order. Plain events interleaved at the same instant bound the batch
// on both sides, preserving global seq order.
func (s *Simulator) runBatch() {
	t := s.queue[0].time
	s.now = t
	s.batch = s.batch[:0]
	for len(s.queue) > 0 && s.queue[0].decide != nil && s.queue[0].time == t {
		s.batch = append(s.batch, s.queue.remove(0))
	}
	ins := s.ins
	var mark time.Time
	if ins != nil {
		ins.batches.Inc()
		ins.batchSize.Observe(float64(len(s.batch)))
		ins.pending.Set(float64(len(s.queue)))
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
		if e.canned || e.index >= 0 {
			// Cancelled mid-batch — or an earlier commit rescheduled this
			// not-yet-committed member to a new instant, putting it back in
			// the queue (index ≥ 0). The reschedule wins: committing the
			// stale batch copy here too would fire the event at both the old
			// and the new instant.
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

// RunAll dispatches every queued event (including those scheduled while
// running) until the queue is empty or Stop is called. Use only in tests and
// bounded workloads; a self-rescheduling timer makes this loop forever.
func (s *Simulator) RunAll() {
	s.Run(math.Inf(1))
}

// Every schedules fn to run at now+delay and then every period seconds until
// the returned Ticker is stopped. fn runs before the next occurrence is
// scheduled, so it may stop the ticker from within.
func (s *Simulator) Every(delay, period float64, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every with non-positive period")
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
		// Reuse the fired event instead of allocating a new one each period;
		// Reschedule assigns a fresh sequence number, so FIFO tie-breaking is
		// the same as scheduling anew.
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
