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

// pollSlack is a shard's coalescing window: it wakes at most once per
// pollSlack and runs every job due within pollSlack of the wake. maxNap
// bounds its sleep, and so how late it finds a job added while it sleeps.
const pollSlack, maxNap = int64(time.Millisecond), int64(50 * time.Millisecond)

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
	running bool
}

var (
	driverBase = time.Now() // the origin of the driver's clock
	// A shard runs its due polls without yielding, so one P is left without
	// a shard for the readers their sends wake: on 2 CPUs two shards made
	// live_fleet's deliveries 3 % slower than per-node tickers, one 2 % faster.
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

func (s *shard) run() {
	var due []*pollJob
	for {
		s.mu.Lock()
		if len(s.jobs) == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		now := int64(time.Since(driverBase))
		edge := now + pollSlack
		for s.jobs[0].at <= edge {
			j := s.jobs[0]
			due = append(due, j)
			if j.at += j.period; j.at <= edge {
				j.at += ((edge-j.at)/j.period + 1) * j.period
			}
			heap.Fix(&s.jobs, 0)
		}
		wake := min(max(s.jobs[0].at-pollSlack, edge), now+maxNap)
		s.mu.Unlock()
		for _, j := range due {
			j.n.poll(j.beacon)
		}
		clear(due)
		due = due[:0]
		time.Sleep(time.Duration(wake - int64(time.Since(driverBase))))
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
// has left the driver since the shard collected the job.
func (n *Node) poll(beacon bool) {
	n.pollMu.Lock()
	defer n.pollMu.Unlock()
	switch {
	case n.unscheduled:
	case beacon:
		n.sendBeacon()
		n.relayOwedIntroductions(time.Now())
	default:
		n.fireDue()
	}
}
