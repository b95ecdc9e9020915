package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
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

// TestRunEndingsLeaveNoGoroutine counts goroutines around runs that end in
// every way a run can: normally, by Abort, by deadlock, by a thread panic
// and by a thread calling runtime.Goexit (as t.FailNow does). Threads
// contend for a mutex and are preempted at every operation, so when the
// run ends, threads are parked in one another's coroutine slots, some
// runnable and some blocked. No run may leave a goroutine behind. A
// thread's Goexit must reach Run's caller: Run must not return, least of
// all with a nil error that reports a truncated run as a success.
func TestRunEndingsLeaveNoGoroutine(t *testing.T) {
	const n = 4
	pruned := errors.New("pruned")
	endings := []struct {
		name string
		end  func(s *Scheduler, tid int)
		want string // substring of Run's error; "" wants nil
	}{
		{"normal", func(*Scheduler, int) {}, ""},
		{"abort", func(s *Scheduler, _ int) { s.Abort(pruned) }, "pruned"},
		{"deadlock", nil, "deadlock"},
		{"panic", func(*Scheduler, int) { panic("boom") }, "panicked: boom"},
		{"goexit", func(*Scheduler, int) { runtime.Goexit() }, ""}, // Run must not return
	}
	for _, e := range endings {
		for seed := int64(0); seed < 16; seed++ {
			ender, at := int(seed%n), int(seed%5)
			s := New(n, seed, 1+int(seed%3))
			mu := NewMutex("m")
			never := NewBarrier("never", n)
			body := func(tid int) {
				for i := 0; i < 8; i++ {
					mu.Lock(s, tid)
					s.Yield()
					if tid == ender && i == at && e.end != nil {
						e.end(s, tid)
					}
					mu.Unlock(s, tid)
					s.Yield()
				}
				if e.end == nil && tid != 0 {
					never.Await(s, tid) // thread 0 never arrives
				}
			}
			before := runtime.NumGoroutine()
			var err error
			if e.name == "goexit" {
				// Run's caller exits, so it needs a goroutine of its own,
				// which lingers briefly after signalling done.
				returned := false
				done := make(chan struct{})
				go func() {
					defer close(done)
					err = s.Run(body)
					returned = true
				}()
				<-done
				if returned {
					t.Errorf("goexit seed %d: Run returned (err = %v) instead of passing thread %d's Goexit on", seed, err, ender)
				}
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			} else {
				err = s.Run(body)
				if e.want == "" && err != nil || e.want != "" && (err == nil || !strings.Contains(err.Error(), e.want)) {
					t.Errorf("%s seed %d: err = %v, want %q", e.name, seed, err, e.want)
				}
			}
			// A goroutine of an earlier test may still be exiting, so
			// only an increase counts.
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%s seed %d: %d goroutines after the run, %d before", e.name, seed, got, before)
			}
		}
	}
}

// panicky picks round-robin among the runnable threads and panics at its
// nth Pick.
type panicky struct{ n, picks int }

func (d *panicky) SwitchBudget() int { return 1 }

func (d *panicky) Pick(_ int, runnable []int) int {
	d.picks++
	if d.picks == d.n {
		panic("decider")
	}
	return runnable[d.picks%len(runnable)]
}

// TestDeciderPanicFailsRun makes the decider panic at each of a run's
// Picks in turn: in Run's first Pick, at a forced switch in Yield, and in
// the Pick a finishing thread makes for its successor, with threads parked
// in one another's coroutine slots. A panic in the first Pick reaches
// Run's caller; every later one fails the run with an error naming it. No
// run may end with a nil error or leave a goroutine behind.
func TestDeciderPanicFailsRun(t *testing.T) {
	const n = 4
	body := func(s *Scheduler) func(int) {
		return func(tid int) {
			for range 2 * tid {
				s.Yield()
			}
		}
	}
	ref := &panicky{} // never panics: counts a run's Picks
	s := NewControlled(n, ref)
	if err := s.Run(body(s)); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= ref.picks; k++ {
		before := runtime.NumGoroutine()
		s := NewControlled(n, &panicky{n: k})
		var err error
		caught := func() (r any) {
			defer func() { r = recover() }()
			err = s.Run(body(s))
			return nil
		}()
		switch {
		case k == 1:
			if caught != "decider" {
				t.Errorf("pick 1: recovered %v (err %v), want the decider's panic", caught, err)
			}
		case caught != nil || err == nil || !strings.Contains(err.Error(), "panicked: decider"):
			t.Errorf("pick %d: recovered %v, err = %v; want an error naming the decider's panic", k, caught, err)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("pick %d: %d goroutines after the run, %d before", k, got, before)
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
