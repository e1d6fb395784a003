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
	"sync"
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
	decide func(worker int) // decision half of a split event; nil for plain events
	shard  int32            // worker-affinity key of a split event
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
	workers int             // decision-phase parallelism; 0/1 means sequential
	prepare func()          // sequential hook before each batch's decision phase
	batch   []*Event        // the split events of the batch being dispatched
	pool    []chan struct{} // worker wake channels; nil when no pool is live
	poolWG  sync.WaitGroup

	// Spatial shard routing (see SetShardMap). shardMap translates an
	// event's shard key into a dynamic shard id; workQ holds the per-worker
	// event buckets of the batch being dispatched.
	shardMap   func(key int) int
	numShards  int
	workQ      [][]*Event
	shardItems []int // per-shard event counts of the current batch (instrumented only)

	// Observability (see SetRegistry). ins is nil when uninstrumented; all
	// measurements are wall-clock side channels that never influence event
	// order, so instrumented and bare runs stay bit-identical.
	ins        *simInstruments
	workerBusy []time.Duration // per-worker decide time of the current batch
}

// simInstruments are the executor's registry instruments.
type simInstruments struct {
	events      *obs.Counter
	batches     *obs.Counter
	inline      *obs.Counter
	batchSize   *obs.Histogram
	prepareTime *obs.Histogram
	decideTime  *obs.Histogram
	commitTime  *obs.Histogram
	workersG    *obs.Gauge
	utilization *obs.Gauge
	utilMin     *obs.Gauge
	pending     *obs.Gauge
	shardSkew   *obs.Gauge
	shardItems  *obs.Histogram
}

// New returns an empty simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// SetRegistry instruments the executor with sim_* metrics: dispatched-event
// and batch counters, batch-size and per-phase wall-clock histograms, and
// worker-count/utilization gauges. Pass nil to detach. Instruments observe
// real elapsed time, never virtual time, and have no effect on dispatch
// order — results stay bit-identical with or without them.
func (s *Simulator) SetRegistry(reg *obs.Registry) {
	if reg == nil {
		s.ins = nil
		s.workerBusy = nil
		return
	}
	s.ins = &simInstruments{
		events: reg.Counter("sim_events_dispatched_total",
			"events executed by the simulator"),
		batches: reg.Counter("sim_batches_total",
			"split-event batches dispatched"),
		inline: reg.Counter("sim_batches_inline_total",
			"split-event batches decided on the dispatching goroutine: one worker, or too few events to be worth waking the pool"),
		batchSize: reg.Histogram("sim_batch_size",
			"split events per same-instant batch",
			obs.ExpBuckets(1, 2, 14)),
		prepareTime: reg.Histogram("sim_phase_prepare_seconds",
			"wall-clock time of the sequential batch-prepare hook",
			obs.ExpBuckets(1e-7, 4, 12)),
		decideTime: reg.Histogram("sim_phase_decide_seconds",
			"wall-clock time of the (possibly parallel) decision phase",
			obs.ExpBuckets(1e-7, 4, 12)),
		commitTime: reg.Histogram("sim_phase_commit_seconds",
			"wall-clock time of the sequential commit phase",
			obs.ExpBuckets(1e-7, 4, 12)),
		workersG: reg.Gauge("sim_workers",
			"configured decision-phase parallelism"),
		utilization: reg.Gauge("sim_worker_utilization",
			"busy fraction of the worker pool over the last parallel decide phase"),
		utilMin: reg.Gauge("sim_worker_utilization_min",
			"busy fraction of the least-loaded worker over the last parallel decide phase"),
		pending: reg.Gauge("sim_pending_events",
			"events queued at the last batch boundary"),
		shardSkew: reg.Gauge("sim_shard_skew",
			"max/mean per-shard event ratio of the last shard-routed batch (1 = balanced)"),
		shardItems: reg.Histogram("sim_shard_batch_items",
			"split events routed to one shard in one batch",
			obs.ExpBuckets(1, 2, 14)),
	}
	s.ins.workersG.Set(float64(s.Workers()))
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
// event's decide callback runs (possibly on parallel workers — see
// SetWorkers), then every commit callback runs sequentially in scheduling
// (seq) order. The contract that makes workers=N bit-identical to workers=1:
//
//   - decide must only read state shared with other batch members, and may
//     write only state owned by its shard (its own RNG stream, its own
//     pending-action buffers);
//   - all mutation of shared state — and every draw from a shared RNG
//     stream — belongs in commit;
//   - events with equal shard values are decided in seq order by a single
//     worker, so same-shard decides may share mutable per-shard state.
//
// decide receives the index of the worker running it (0 ≤ worker <
// Workers()), usable to index per-worker scratch. Time validation, FIFO
// tie-breaking, Cancel and Reschedule behave exactly as for Schedule; a
// rescheduled split event keeps its decide/shard. shard must be ≥ 0.
func (s *Simulator) ScheduleSplit(at float64, shard int, decide func(worker int), commit func()) *Event {
	s.checkTime("schedule", at)
	if shard < 0 {
		panic(fmt.Sprintf("sim: split event with negative shard %d", shard))
	}
	if decide == nil || commit == nil {
		panic("sim: split event with nil phase")
	}
	e := &Event{time: at, fn: commit, decide: decide, shard: int32(shard), index: -1}
	s.enqueue(e)
	return e
}

// SetWorkers sets the decision-phase parallelism for split-event batches.
// Values below 1 are clamped to 1 (sequential). Any value produces
// bit-identical results; workers only changes which goroutine evaluates each
// decide. Call it between Run invocations or from an event callback — the
// worker pool is (re)built at the next batch and torn down when Run returns.
func (s *Simulator) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
	if s.ins != nil {
		s.ins.workersG.Set(float64(n))
	}
}

// Workers returns the configured decision-phase parallelism (≥ 1).
func (s *Simulator) Workers() int {
	if s.workers < 1 {
		return 1
	}
	return s.workers
}

// SetBatchPrepare installs a hook that runs sequentially at the start of
// every split-event batch, before any decide. Use it to bring shared
// read-mostly structures up to date (e.g. rebuild a spatial index) while the
// simulator is quiescent, so the parallel decision phase sees one consistent
// snapshot. A nil fn removes the hook.
func (s *Simulator) SetBatchPrepare(fn func()) { s.prepare = fn }

// SetShardMap installs a dynamic translation from split-event shard keys to
// shard ids in [0, numShards). When set, a batch's decides are routed to
// worker fn(key) % Workers() instead of key % Workers(), and fn is consulted
// afresh at every batch — after the prepare hook has run — so a spatial map
// that reassigns keys between batches (peer migration across tiles) takes
// effect at the next batch boundary. fn must be pure during a batch: the
// executor calls it once per event, sequentially, before any decide runs.
// Events mapping to the same shard id keep the same-worker, seq-order
// guarantee documented on ScheduleSplit. A nil fn restores identity routing.
func (s *Simulator) SetShardMap(numShards int, fn func(key int) int) {
	if fn == nil || numShards < 1 {
		s.shardMap, s.numShards = nil, 0
		return
	}
	s.shardMap, s.numShards = fn, numShards
}

// bucketBatch distributes the current batch's events into per-worker queues
// in batch (= seq) order, applying the shard map when installed. Runs
// sequentially after prepare, before the workers wake. When instrumented and
// shard-routed, it also tallies per-shard batch sizes and the skew gauge so
// imbalance is visible per shard instead of averaged away.
func (s *Simulator) bucketBatch() {
	nw := len(s.pool)
	for len(s.workQ) < nw {
		s.workQ = append(s.workQ, nil)
	}
	for w := 0; w < nw; w++ {
		s.workQ[w] = s.workQ[w][:0]
	}
	tally := s.ins != nil && s.shardMap != nil && s.numShards > 0
	if tally {
		for len(s.shardItems) < s.numShards {
			s.shardItems = append(s.shardItems, 0)
		}
		for i := 0; i < s.numShards; i++ {
			s.shardItems[i] = 0
		}
	}
	for _, e := range s.batch {
		k := int(e.shard)
		if s.shardMap != nil {
			k = s.shardMap(k)
		}
		s.workQ[k%nw] = append(s.workQ[k%nw], e)
		if tally {
			s.shardItems[k%s.numShards]++
		}
	}
	if tally {
		maxItems := 0
		for i := 0; i < s.numShards; i++ {
			if s.shardItems[i] > 0 {
				s.ins.shardItems.Observe(float64(s.shardItems[i]))
			}
			if s.shardItems[i] > maxItems {
				maxItems = s.shardItems[i]
			}
		}
		if mean := float64(len(s.batch)) / float64(s.numShards); mean > 0 {
			s.ins.shardSkew.Set(float64(maxItems) / mean)
		}
	}
}

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
	defer s.closePool()
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

// poolBatchMin is the smallest split-event batch handed to the worker pool;
// anything smaller is decided on the dispatching goroutine. Waking the pool
// costs a bucketing pass, a channel send per worker and a WaitGroup wait —
// tens of microseconds — against 1–2 µs per decide, so a small batch finishes
// inline before the workers have woken. BenchmarkBatchDispatch measures both
// sides by batch size; docs/PERFORMANCE.md records the crossover. Which
// goroutine decides never changes a result (see ScheduleSplit).
const poolBatchMin = 256

// runBatch dispatches the maximal run of split events at the head of the
// queue sharing one instant: prepare hook, decision phase (inline, or on the
// pool from poolBatchMin events up), then commits in seq order. Plain events
// interleaved at the same instant bound the batch on both sides, preserving
// global seq order.
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
	parallel := s.workers > 1 && len(s.batch) >= poolBatchMin
	if parallel {
		s.decideOnPool()
	} else {
		s.decideInline()
		if ins != nil {
			ins.inline.Inc()
		}
	}
	if ins != nil {
		now := time.Now()
		wall := now.Sub(mark)
		ins.decideTime.Observe(wall.Seconds())
		if parallel && wall > 0 {
			// Utilization: total busy worker time over the pool's capacity
			// for this phase. 1.0 means no worker ever idled. The mean hides
			// imbalance, so the least-loaded worker's fraction is published
			// alongside it — with spatial sharding, a low minimum means some
			// tile's worker sat idle while another's ran hot.
			var busy time.Duration
			minBusy := s.workerBusy[0]
			for _, d := range s.workerBusy {
				busy += d
				if d < minBusy {
					minBusy = d
				}
			}
			ins.utilization.Set(float64(busy) / (float64(len(s.pool)) * float64(wall)))
			ins.utilMin.Set(float64(minBusy) / float64(wall))
		} else {
			ins.utilization.Set(1)
			ins.utilMin.Set(1)
		}
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

// decideInline runs the current batch's decides in seq order on the calling
// goroutine, as worker 0.
func (s *Simulator) decideInline() {
	for _, e := range s.batch {
		if !e.canned {
			e.decide(0)
		}
	}
}

// decideOnPool fans the current batch's decides out to the worker pool and
// waits for all of them.
func (s *Simulator) decideOnPool() {
	s.ensurePool()
	s.bucketBatch()
	s.poolWG.Add(len(s.pool))
	for _, ch := range s.pool {
		ch <- struct{}{}
	}
	s.poolWG.Wait()
}

// ensurePool brings the persistent decide-phase worker pool to the
// configured size. Workers block on their wake channel between batches; the
// channel send publishes the batch slice and the wait-group closes the
// happens-before edge back to the commit phase, so batch state needs no
// other synchronization.
func (s *Simulator) ensurePool() {
	if len(s.pool) == s.workers {
		return
	}
	s.closePool()
	s.pool = make([]chan struct{}, s.workers)
	s.workerBusy = make([]time.Duration, s.workers)
	for w := range s.pool {
		ch := make(chan struct{})
		s.pool[w] = ch
		go func(w int) {
			for range ch {
				// Busy-time tracking (worker w writes only index w; the
				// WaitGroup publishes it back to the dispatcher). Timed only
				// when instrumented to keep the bare path clock-free.
				timed := s.ins != nil
				var start time.Time
				if timed {
					start = time.Now()
				}
				for _, e := range s.workQ[w] {
					// Shard-affine assignment: bucketBatch routed equal
					// (mapped) shards to the same worker, in batch (= seq)
					// order.
					if !e.canned {
						e.decide(w)
					}
				}
				if timed {
					s.workerBusy[w] = time.Since(start)
				}
				s.poolWG.Done()
			}
		}(w)
	}
}

// closePool tears the worker pool down; the goroutines exit when their wake
// channels close.
func (s *Simulator) closePool() {
	for _, ch := range s.pool {
		close(ch)
	}
	s.pool = nil
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
