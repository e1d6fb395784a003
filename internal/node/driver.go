package node

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The poll driver runs every started node's periodic work — its poll of the
// slot schedule (fireDue) every max(Δt/5, 1 ms) and, with discovery, its
// beacon every BeaconInterval — from one goroutine per shard over a min-heap
// of due instants. Each job keeps its own grid, start + j·period, so a
// fleet's polls stay spread over the period, not fired in one burst; a job
// found late skips the instants it missed, as a ticker drops ticks.
//
// The shard dispatches the node's datagrams too: its conn's arrival callback
// puts it on its shard's ready list, and the shard takes what the conn
// queued with TryRead. A shard never sleeps while that list holds a node,
// and an arrival wakes a sleeping shard. A memnet endpoint costs no
// goroutine of its own; a UDP conn runs one reader that feeds its queue.
//
// A shard never waits on one node's lock: it probes n.mu first, and a node
// whose lock is held elsewhere has its poll skipped to the job's next grid
// instant and its drain retried on the next pass, a pollSlack later.

// pollSlack is a shard's coalescing window: it wakes at most once per
// pollSlack and runs every job due within pollSlack of the wake, maxPolls
// a pass, before it sleeps again. maxNap
// bounds its sleep, and so how late it finds a job added while it sleeps.
const pollSlack, maxNap = int64(time.Millisecond), int64(50 * time.Millisecond)

// maxPolls is the most jobs a shard runs in a pass, and maxDrain the most
// datagrams it dispatches for one node in a pass: a burst of due polls or a
// flooded node holds the shard's other ready nodes for one turn, not for
// the whole burst.
const maxPolls, maxDrain = 32, 64

// pollJob is one periodic job of a node on its shard's heap.
type pollJob struct {
	at, period int64 // next due instant and grid step
	n          *Node
	beacon     bool // sendBeacon, else fireDue
	idx        int  // heap index
}

// jobHeap orders jobs on their due instants, for container/heap.
type jobHeap []*pollJob

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(a, b int) bool { return h[a].at < h[b].at }
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].idx, h[b].idx = a, b
}
func (h *jobHeap) Push(x any) { *h = append(*h, x.(*pollJob)) }
func (h *jobHeap) Pop() any {
	last := len(*h) - 1
	(*h)[last] = nil
	*h = (*h)[:last]
	return nil
}

// A shard's goroutine runs while its heap holds jobs.
type shard struct {
	mu      sync.Mutex
	jobs    jobHeap
	ready   []*Node       // nodes with datagrams queued, each once (Node.ready)
	wake    chan struct{} // one token: an arrival while the goroutine sleeps
	running bool
	asleep  bool
}

var (
	driverBase = time.Now() // the origin of the driver's clock
	// A shard runs its due polls and drains without yielding, so one P is
	// left without a shard for the goroutines that inject and probe: on 2
	// CPUs, with every memnet node's receives on the shards, two shards
	// read live_fleet's delivery_time_s and delivery_p95_ms 11 % slower
	// than one, and cpu_ms_per_ad 10 % higher.
	shards    = make([]shard, max(1, runtime.GOMAXPROCS(0)-1))
	nextShard atomic.Uint32
)

// add puts jobs on the heap and starts the goroutine if it is not running.
func (s *shard) add(jobs []pollJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range jobs {
		jobs[i].idx = len(s.jobs)
		heap.Push(&s.jobs, &jobs[i])
	}
	if !s.running {
		s.running = true
		if s.wake == nil {
			s.wake = make(chan struct{}, 1)
		}
		go s.run()
	}
}

// remove takes jobs off the heap.
func (s *shard) remove(jobs []pollJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range jobs {
		heap.Remove(&s.jobs, jobs[i].idx)
	}
}

// arrived is a node's arrival callback: it puts the node on its shard's
// ready list, unless it is there already, and wakes the shard. A shard that
// is not running holds no job, so its nodes are closing and their datagrams
// go unread.
func (n *Node) arrived() {
	s := n.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	if n.ready || !s.running {
		return
	}
	n.ready = true
	s.ready = append(s.ready, n)
	if s.asleep {
		s.asleep = false
		s.wake <- struct{}{} // the goroutine takes the one token before it sleeps again
	}
}

// requeue puts a node whose drain was put off back on the ready list of the
// next pass, held, unless an arrival has put it on the shard's list since.
func (s *shard) requeue(held []*Node, n *Node) []*Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n.ready {
		return held
	}
	n.ready = true
	return append(held, n)
}

func (s *shard) run() {
	var (
		due         []*pollJob
		drain, held []*Node
		timer       *time.Timer
	)
	for {
		s.mu.Lock()
		if len(s.jobs) == 0 {
			s.running = false
			clear(s.ready)
			s.ready = s.ready[:0]
			s.mu.Unlock()
			if timer != nil {
				timer.Stop()
			}
			return
		}
		now := int64(time.Since(driverBase))
		edge := now + pollSlack
		for len(due) < maxPolls && s.jobs[0].at <= edge {
			j := s.jobs[0]
			due = append(due, j)
			if j.at += j.period; j.at <= edge {
				j.at += ((edge-j.at)/j.period + 1) * j.period
			}
			heap.Fix(&s.jobs, 0)
		}
		wake := min(max(s.jobs[0].at-pollSlack, edge), now+maxNap)
		if len(due) == maxPolls {
			wake = now // more are due: run them after this pass's drains
		}
		drain = append(append(drain, held...), s.ready...)
		clear(s.ready)
		s.ready, held = s.ready[:0], held[:0]
		for _, n := range drain {
			n.ready = false
		}
		s.mu.Unlock()
		for _, j := range due {
			j.n.poll(j.beacon)
		}
		for _, n := range drain {
			if !n.drain() {
				held = s.requeue(held, n)
			}
		}
		clear(due)
		clear(drain)
		due, drain = due[:0], drain[:0]
		if len(held) > 0 {
			wake = min(wake, edge)
		}
		s.mu.Lock()
		nap := time.Duration(wake - int64(time.Since(driverBase)))
		if len(s.ready) > 0 || nap <= 0 {
			s.mu.Unlock()
			continue
		}
		s.asleep = true
		s.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(nap)
		} else {
			timer.Reset(nap)
		}
		select {
		case <-timer.C:
			s.mu.Lock()
			if !s.asleep {
				<-s.wake // an arrival raced the timer: take its token
			}
			s.asleep = false
			s.mu.Unlock()
		case <-s.wake:
			// go.mod's go 1.22 keeps the pre-1.23 timer channel: a timer
			// that fired during the wake still holds its value.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
	}
}

// schedule puts the node's jobs on the next shard: its poll a period from
// now, and with discovery its beacon at once, so a cold start reaches the
// seeds without waiting an interval. Callers hold n.mu.
func (n *Node) schedule() {
	now := int64(time.Since(driverBase))
	period := int64(max(n.cfg.RoundTime/5, time.Millisecond))
	n.jobs = append(make([]pollJob, 0, 2), pollJob{at: now + period, period: period, n: n})
	if n.table != nil {
		n.jobs = append(n.jobs, pollJob{at: now, period: int64(n.cfg.BeaconInterval), n: n, beacon: true})
	}
	n.shard = &shards[(nextShard.Add(1)-1)%uint32(len(shards))]
	n.shard.add(n.jobs)
}

// poll runs one job of the node on its shard's goroutine, unless the node
// has left the driver since the shard collected the job or its lock is held
// elsewhere: then the job waits for its next grid instant.
func (n *Node) poll(beacon bool) {
	n.pollMu.Lock()
	defer n.pollMu.Unlock()
	switch {
	case n.unscheduled || !n.lockFree():
	case beacon:
		n.sendBeacon()
		n.relayOwedIntroductions(time.Now())
	default:
		n.fireDue()
	}
}

// drain dispatches the datagrams queued on the node's conn, on its shard's
// goroutine, unless the node has left the driver. It reports false, having
// read nothing, when the node's lock is held elsewhere. A read fault the
// conn survived is counted and logged. After maxDrain entries it puts the
// node back on the ready list, so a flooded node delays its shard's other
// nodes by one turn, not by its whole backlog.
func (n *Node) drain() bool {
	n.pollMu.Lock()
	defer n.pollMu.Unlock()
	if n.unscheduled {
		return true
	}
	if !n.lockFree() {
		return false
	}
	for range maxDrain {
		data, from, ok, err := n.conn.TryRead()
		switch {
		case !ok:
			return true
		case err != nil:
			n.ctr.ReadErrors.Add(1)
			n.logf("read error: %v", err)
		default:
			n.dispatch(data, from)
		}
	}
	n.arrived() // more are queued, and no arrival will say so
	return true
}

// lockFree probes n.mu: it reports whether the lock was free, leaving it so.
// A shard runs a node's poll or drain only then, so one node's lock held for
// long stalls that node alone, not every node on its shard.
func (n *Node) lockFree() bool {
	if !n.mu.TryLock() {
		return false
	}
	n.mu.Unlock()
	return true
}
