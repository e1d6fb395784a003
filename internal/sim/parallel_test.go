package sim

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

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

// TestScheduleSplitPhases checks the batch contract on a single instant:
// the prepare hook runs once before any decide, every decide runs before
// any commit, and commits run in scheduling order — for a batch small enough
// to be decided inline and for one that reaches the worker pool.
func TestScheduleSplitPhases(t *testing.T) {
	for _, n := range []int{3, poolBatchMin + 3} {
		s := New()
		s.SetWorkers(4)
		preps := 0
		s.SetBatchPrepare(func() { preps++ })
		decided := make([]bool, n)
		workersSeen := make([]int, n)
		var log []int
		for i := 0; i < n; i++ {
			i := i
			s.ScheduleSplit(1, i, func(worker int) {
				if worker < 0 || worker >= 4 {
					t.Errorf("worker index %d out of range", worker)
				}
				if preps != 1 {
					t.Errorf("decide %d ran after %d prepares, want 1", i, preps)
				}
				decided[i], workersSeen[i] = true, worker
			}, func() {
				for j, ok := range decided {
					if !ok {
						t.Fatalf("n=%d: commit %d ran before decide %d", n, i, j)
					}
				}
				log = append(log, i)
			})
		}
		s.RunAll()
		if len(log) != n {
			t.Fatalf("n=%d: %d commits", n, len(log))
		}
		for i, got := range log {
			if got != i {
				t.Fatalf("n=%d: commit order diverges at %d: %d", n, i, got)
			}
		}
		if s.Dispatched() != uint64(n) {
			t.Fatalf("dispatched = %d, want %d", s.Dispatched(), n)
		}
		pooled := false
		for _, w := range workersSeen {
			pooled = pooled || w != 0
		}
		if want := n >= poolBatchMin; pooled != want {
			t.Fatalf("n=%d: decided on the pool = %v, want %v", n, pooled, want)
		}
	}
}

// TestScheduleSplitShardAffinity verifies that events sharing a shard are
// decided in seq order — the guarantee that lets same-shard decides share
// mutable state (e.g. one peer's RNG stream).
func TestScheduleSplitShardAffinity(t *testing.T) {
	const shards, perShard = 8, poolBatchMin/8 + 1 // one batch, wide enough for the pool
	s := New()
	s.SetWorkers(3)
	order := make([][]int, shards)
	for rep := 0; rep < perShard; rep++ {
		for sh := 0; sh < shards; sh++ {
			sh, rep := sh, rep
			s.ScheduleSplit(2, sh, func(int) {
				order[sh] = append(order[sh], rep) // same worker per shard: no race
			}, func() {})
		}
	}
	s.RunAll()
	for sh := range order {
		if len(order[sh]) != perShard {
			t.Fatalf("shard %d decided %d times, want %d", sh, len(order[sh]), perShard)
		}
		for rep, got := range order[sh] {
			if got != rep {
				t.Fatalf("shard %d decide order %v, want ascending", sh, order[sh])
			}
		}
	}
}

// splitMix schedules a deterministic pseudo-random mix of plain and split
// events on s, each appending its tag to a commit log. Split events verify
// their own decide ran first. Returns the log pointer.
func splitMix(s *Simulator, seed int64, t *testing.T) *[]int {
	rnd := rand.New(rand.NewSource(seed))
	log := new([]int)
	tag := 0
	for round := 0; round < 40; round++ {
		at := float64(rnd.Intn(20)) // coarse instants force multi-event batches
		n := 1 + rnd.Intn(6)
		if round%8 == 0 {
			n += poolBatchMin // wide enough to leave the inline path
		}
		for i := 0; i < n; i++ {
			tag++
			id := tag
			if rnd.Intn(3) == 0 {
				s.Schedule(at, func() { *log = append(*log, id) })
				continue
			}
			decided := false
			s.ScheduleSplit(at, rnd.Intn(5), func(int) { decided = true }, func() {
				if !decided {
					t.Errorf("split event %d committed before its decide", id)
				}
				*log = append(*log, id)
			})
		}
	}
	return log
}

// TestBatchMatchesSequential is the sim-level equivalence property: the
// same schedule of plain and split events produces identical Now(),
// Dispatched() and commit order whether batches run with one worker or
// GOMAXPROCS workers, and identically to a simulator that never
// parallelizes (workers left at the default).
func TestBatchMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		ref := New() // default workers: sequential batch path
		refLog := splitMix(ref, seed, t)
		ref.Run(1000)

		par := New()
		par.SetWorkers(runtime.GOMAXPROCS(0) + 2) // oversubscribe on purpose
		parLog := splitMix(par, seed, t)
		par.Run(1000)

		if ref.Now() != par.Now() {
			t.Fatalf("seed %d: Now %v (seq) != %v (par)", seed, ref.Now(), par.Now())
		}
		if ref.Dispatched() != par.Dispatched() {
			t.Fatalf("seed %d: Dispatched %d (seq) != %d (par)", seed, ref.Dispatched(), par.Dispatched())
		}
		if len(*refLog) != len(*parLog) {
			t.Fatalf("seed %d: commit log lengths %d vs %d", seed, len(*refLog), len(*parLog))
		}
		for i := range *refLog {
			if (*refLog)[i] != (*parLog)[i] {
				t.Fatalf("seed %d: commit order diverges at %d: %d vs %d",
					seed, i, (*refLog)[i], (*parLog)[i])
			}
		}
	}
}

// TestSplitRescheduleCancel exercises timer surgery on split events: a
// rescheduled split event keeps both phases; a cancelled one fires neither.
func TestSplitRescheduleCancel(t *testing.T) {
	s := New()
	s.SetWorkers(2)
	var decides, commits int
	e := s.ScheduleSplit(1, 0, func(int) { decides++ }, func() { commits++ })
	s.Reschedule(e, 5)
	dead := s.ScheduleSplit(5, 1, func(int) { t.Error("cancelled decide ran") },
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
	s.SetWorkers(4)
	var log []int
	s.ScheduleSplit(1, 0, func(int) {}, func() { log = append(log, 1) })
	s.Schedule(1, func() { log = append(log, 2) })
	s.ScheduleSplit(1, 0, func(int) {}, func() { log = append(log, 3) })
	s.RunAll()
	if len(log) != 3 || log[0] != 1 || log[1] != 2 || log[2] != 3 {
		t.Fatalf("dispatch order %v, want [1 2 3]", log)
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

// TestShardMapPreservesSeqOrderWithinShard folds 8 shard keys onto 2 mapped
// shards and checks the ScheduleSplit ordering guarantee survives the map:
// events of one mapped shard are decided by one worker in seq order.
func TestShardMapPreservesSeqOrderWithinShard(t *testing.T) {
	s := New()
	s.SetWorkers(3)
	s.SetShardMap(2, func(key int) int { return key / 4 })
	const reps = poolBatchMin/8 + 1 // one batch, wide enough for the pool
	var order [2][]int
	for rep := 0; rep < reps; rep++ {
		for key := 0; key < 8; key++ {
			sh, tag := key/4, rep*8+key
			s.ScheduleSplit(1, key, func(int) {
				order[sh] = append(order[sh], tag) // same worker per mapped shard: no race
			}, func() {})
		}
	}
	s.RunAll()
	for sh := range order {
		if len(order[sh]) != reps*4 {
			t.Fatalf("shard %d decided %d events, want %d", sh, len(order[sh]), reps*4)
		}
		for i := 1; i < len(order[sh]); i++ {
			if order[sh][i] <= order[sh][i-1] {
				t.Fatalf("shard %d decide order not ascending at %d: %v", sh, i, order[sh][:i+1])
			}
		}
	}
}

// TestShardMapRemapsBetweenBatches checks the migration contract: the shard
// map is consulted afresh at every batch, so a key reassigned between
// batches runs on its new shard's worker at the very next batch.
func TestShardMapRemapsBetweenBatches(t *testing.T) {
	s := New()
	s.SetWorkers(2)
	assign := []int{0, 1} // key -> shard, swapped between the two batches
	s.SetShardMap(2, func(key int) int { return assign[key] })
	var mu sync.Mutex
	worker := map[[2]int]int{} // (batch, key) -> deciding worker
	schedule := func(batch int, at float64) {
		// Routing only exists on the pool: make each batch wide enough.
		for i := 0; i < poolBatchMin; i++ {
			k := i % 2
			s.ScheduleSplit(at, k, func(w int) {
				mu.Lock()
				worker[[2]int{batch, k}] = w
				mu.Unlock()
			}, func() {})
		}
	}
	schedule(1, 1)
	s.Schedule(2, func() { assign[0], assign[1] = 1, 0 })
	schedule(2, 3)
	s.RunAll()
	if worker[[2]int{1, 0}] == worker[[2]int{1, 1}] {
		t.Fatalf("distinct shards share a worker: %v", worker)
	}
	if worker[[2]int{2, 0}] != worker[[2]int{1, 1}] || worker[[2]int{2, 1}] != worker[[2]int{1, 0}] {
		t.Fatalf("swapped shard map did not reroute keys: %v", worker)
	}
}

// TestShardMapNilRestoresIdentity pins that clearing the map reverts to
// key-modulo routing (the legacy per-peer affinity).
func TestShardMapNilRestoresIdentity(t *testing.T) {
	s := New()
	s.SetWorkers(2)
	s.SetShardMap(4, func(key int) int { return 0 })
	s.SetShardMap(0, nil)
	var mu sync.Mutex
	workers := map[int]int{}
	for i := 0; i < poolBatchMin; i++ { // wide enough for the pool, where routing exists
		k := i % 4
		s.ScheduleSplit(1, k, func(w int) {
			mu.Lock()
			workers[k] = w
			mu.Unlock()
		}, func() {})
	}
	s.RunAll()
	for k, w := range workers {
		if w != k%2 {
			t.Fatalf("key %d decided on worker %d, want %d", k, w, k%2)
		}
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
	var bEv *Event
	var bTimes []float64
	s.ScheduleSplit(1, 0, func(int) {}, func() { s.Reschedule(bEv, 2) })
	bEv = s.ScheduleSplit(1, 1, func(int) {}, func() { bTimes = append(bTimes, s.Now()) })
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
	var bEv *Event
	commits, decides := 0, 0
	s.ScheduleSplit(1, 0, func(int) {}, func() { s.Reschedule(bEv, 1) })
	bEv = s.ScheduleSplit(1, 1, func(int) { decides++ }, func() { commits++ })
	s.Run(10)
	if commits != 1 {
		t.Fatalf("same-instant rescheduled member committed %d times, want 1", commits)
	}
	if decides != 2 {
		t.Fatalf("same-instant rescheduled member decided %d times, want 2 (once per batch)", decides)
	}
}
