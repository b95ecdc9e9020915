package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// trace runs n threads that each append events to a shared log under the
// serialized schedule and returns the event order.
func trace(seed int64, n, opsPer int) []string {
	s := New(n, seed, 2)
	var log []string
	_ = s.Run(func(tid int) {
		for i := 0; i < opsPer; i++ {
			log = append(log, fmt.Sprintf("t%d.%d", tid, i))
			s.Yield()
		}
	})
	return log
}

// TestSameSeedSameSchedule property-checks reproducibility: the same seed
// yields the identical interleaving — the foundation of re-execution for
// the state-diff tool.
func TestSameSeedSameSchedule(t *testing.T) {
	f := func(seed int64) bool {
		a := trace(seed, 4, 20)
		b := trace(seed, 4, 20)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDifferentSeedsDiffer checks different seeds explore different
// interleavings (statistically: at least one differing pair among several).
func TestDifferentSeedsDiffer(t *testing.T) {
	base := strings.Join(trace(1, 4, 20), ",")
	for seed := int64(2); seed < 8; seed++ {
		if strings.Join(trace(seed, 4, 20), ",") != base {
			return
		}
	}
	t.Error("7 different seeds produced identical schedules")
}

// TestAllThreadsComplete checks every thread runs to completion and every
// event appears exactly once.
func TestAllThreadsComplete(t *testing.T) {
	log := trace(3, 5, 10)
	if len(log) != 50 {
		t.Fatalf("%d events, want 50", len(log))
	}
	seen := map[string]bool{}
	for _, e := range log {
		if seen[e] {
			t.Fatalf("duplicate event %s", e)
		}
		seen[e] = true
	}
}

// TestSerialization checks only one thread runs at a time: per-thread
// event sequences appear in program order.
func TestSerialization(t *testing.T) {
	log := trace(7, 4, 25)
	next := make([]int, 4)
	for _, e := range log {
		var tid, i int
		fmt.Sscanf(e, "t%d.%d", &tid, &i)
		if i != next[tid] {
			t.Fatalf("thread %d event %d out of order (want %d)", tid, i, next[tid])
		}
		next[tid]++
	}
}

// TestMutexMutualExclusion checks lock-protected critical sections never
// interleave, across many seeds.
func TestMutexMutualExclusion(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := New(4, seed, 1)
		mu := NewMutex("m")
		inside := 0
		maxInside := 0
		err := s.Run(func(tid int) {
			for i := 0; i < 10; i++ {
				mu.Lock(s, tid)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				s.Yield() // try hard to interleave inside the section
				s.Yield()
				inside--
				mu.Unlock(s, tid)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if maxInside != 1 {
			t.Fatalf("seed %d: %d threads inside the critical section", seed, maxInside)
		}
	}
}

// TestMutexUnlockByNonOwnerPanics checks the ownership assertion.
func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	s := New(2, 1, 2)
	mu := NewMutex("m")
	err := s.Run(func(tid int) {
		if tid == 0 {
			mu.Lock(s, tid)
		} else {
			for !mu.held {
				s.Yield()
			}
			mu.Unlock(s, tid) // not the owner: must panic
		}
	})
	if err == nil || !strings.Contains(err.Error(), "unlocking mutex") {
		t.Errorf("err = %v", err)
	}
}

// TestBarrierEpisodes checks a barrier releases everyone together and runs
// OnFull exactly once per episode with the state quiescent.
func TestBarrierEpisodes(t *testing.T) {
	const nt, eps = 5, 7
	for seed := int64(0); seed < 10; seed++ {
		s := New(nt, seed, 2)
		b := NewBarrier("b", nt)
		arrived := 0
		var fullCounts []int
		b.OnFull = func(ep, last int) {
			fullCounts = append(fullCounts, arrived)
		}
		phase := make([]int, nt)
		err := s.Run(func(tid int) {
			for e := 0; e < eps; e++ {
				arrived++
				b.Await(s, tid)
				phase[tid]++
				// After release, every thread must have arrived at the
				// episode: arrived is a multiple boundary check below.
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if b.Episode() != eps {
			t.Fatalf("episodes = %d", b.Episode())
		}
		if len(fullCounts) != eps {
			t.Fatalf("OnFull ran %d times", len(fullCounts))
		}
		for i, c := range fullCounts {
			if c != (i+1)*nt {
				t.Fatalf("episode %d fired with %d arrivals, want %d (quiescence violated)", i, c, (i+1)*nt)
			}
		}
	}
}

// TestBarrierSubset checks barriers for a subset of the threads.
func TestBarrierSubset(t *testing.T) {
	s := New(4, 3, 2)
	b := NewBarrier("sub", 2)
	done := make([]bool, 4)
	err := s.Run(func(tid int) {
		if tid < 2 {
			b.Await(s, tid)
		}
		done[tid] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for tid, d := range done {
		if !d {
			t.Errorf("thread %d never finished", tid)
		}
	}
}

// TestCondProducerConsumer checks condition variables with a bounded
// buffer across seeds: all items transfer, no deadlock.
func TestCondProducerConsumer(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		s := New(3, seed, 1)
		mu := NewMutex("q")
		notEmpty := NewCond("ne", mu)
		var queue []int
		produced, consumed := 0, 0
		const items = 20
		err := s.Run(func(tid int) {
			if tid == 0 { // producer
				for i := 0; i < items; i++ {
					mu.Lock(s, tid)
					queue = append(queue, i)
					produced++
					notEmpty.Signal(s, tid)
					mu.Unlock(s, tid)
				}
				mu.Lock(s, tid)
				queue = append(queue, -1, -1) // poison for both consumers
				notEmpty.Broadcast(s, tid)
				mu.Unlock(s, tid)
				return
			}
			for { // consumers
				mu.Lock(s, tid)
				for len(queue) == 0 {
					notEmpty.Wait(s, tid)
				}
				v := queue[0]
				queue = queue[1:]
				mu.Unlock(s, tid)
				if v == -1 {
					return
				}
				consumed++
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if produced != items || consumed != items {
			t.Fatalf("seed %d: produced %d consumed %d", seed, produced, consumed)
		}
	}
}

// TestDeadlockDetected checks the scheduler reports a deadlock with the
// blocked threads' reasons instead of hanging.
func TestDeadlockDetected(t *testing.T) {
	s := New(2, 1, 2)
	a, b := NewMutex("A"), NewMutex("B")
	err := s.Run(func(tid int) {
		first, second := a, b
		if tid == 1 {
			first, second = b, a
		}
		first.Lock(s, tid)
		// Force the classic ABBA interleaving regardless of schedule.
		for !(a.held && b.held) {
			s.Yield()
		}
		second.Lock(s, tid)
		second.Unlock(s, tid)
		first.Unlock(s, tid)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "lock A") || !strings.Contains(err.Error(), "lock B") {
		t.Errorf("deadlock diagnostics missing lock names: %v", err)
	}
}

// TestAbortUnwindsCleanly checks Abort cancels the run: Run returns an
// error wrapping ErrAborted and every goroutine unwinds (no leaked parked
// threads keep the barrier alive).
func TestAbortUnwindsCleanly(t *testing.T) {
	reason := errors.New("pruned")
	for seed := int64(0); seed < 10; seed++ {
		s := New(4, seed, 2)
		b := NewBarrier("b", 4)
		b.OnFull = func(ep, last int) {
			if ep == 1 {
				s.Abort(reason)
			}
		}
		err := s.Run(func(tid int) {
			for i := 0; i < 5; i++ {
				b.Await(s, tid)
			}
		})
		if !errors.Is(err, ErrAborted) || !errors.Is(err, reason) {
			t.Fatalf("seed %d: err = %v", seed, err)
		}
	}
}

// TestScriptedDeciderControl checks NewControlled drives the schedule
// exactly: with a decider that always picks the last runnable candidate,
// the first thread to run is deterministic.
func TestScriptedDeciderControl(t *testing.T) {
	var order []int
	s := NewControlled(3, pickLast{})
	err := s.Run(func(tid int) {
		order = append(order, tid)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

// pickLast always selects the last candidate and never preempts.
type pickLast struct{}

func (pickLast) SwitchBudget() int { return 1 << 30 }
func (pickLast) Pick(_ int, runnable []int) int {
	return runnable[len(runnable)-1]
}

// TestThreadPanicPropagates checks a panicking thread fails the run with
// its message rather than crashing the process.
func TestThreadPanicPropagates(t *testing.T) {
	s := New(2, 1, 2)
	err := s.Run(func(tid int) {
		if tid == 1 {
			panic("boom")
		}
		for i := 0; i < 100; i++ {
			s.Yield()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

// TestOpsClock checks the progress clock advances per Yield.
func TestOpsClock(t *testing.T) {
	s := New(2, 1, 3)
	_ = s.Run(func(tid int) {
		for i := 0; i < 10; i++ {
			s.Yield()
		}
	})
	if s.Ops() != 20 {
		t.Errorf("Ops = %d, want 20", s.Ops())
	}
	if s.N() != 2 {
		t.Errorf("N = %d", s.N())
	}
}

// TestUnparkIdempotent checks unparking an already-runnable thread is a
// harmless no-op.
func TestUnparkIdempotent(t *testing.T) {
	s := New(2, 1, 2)
	released := false
	err := s.Run(func(tid int) {
		if tid == 0 {
			s.Unpark(1) // 1 is runnable: no-op
			released = true
		} else {
			for !released {
				s.Yield() // keep thread 1 alive until the unpark lands
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnparkFinishedPanics checks unparking a finished thread is rejected —
// it would indicate a corrupted synchronization object.
func TestUnparkFinishedPanics(t *testing.T) {
	s := New(2, 1, 2)
	oneDone := false
	err := s.Run(func(tid int) {
		if tid == 1 {
			oneDone = true
			return
		}
		for !oneDone {
			s.Yield()
		}
		s.Yield() // let thread 1 fully retire
		s.Unpark(1)
	})
	if err == nil || !strings.Contains(err.Error(), "unpark of finished thread") {
		t.Fatalf("err = %v", err)
	}
}
