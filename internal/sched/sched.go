// Package sched provides the serializing thread scheduler InstantCheck is
// evaluated under (paper §7.1): one logical thread runs at a time, and the
// scheduler switches between threads at synchronization operations and at
// chosen preemption points. With the default random decider this is the
// testing model used by PCT and CHESS, which the paper adopts because it
// exposes interleaving complexity much better and faster than truly
// parallel stress runs; with a scripted decider (see Decider) schedules can
// be enumerated systematically (paper §6.2).
//
// Threads are coroutines (iter.Pull), and a context switch is one
// coroutine switch: the thread giving up the CPU resumes its successor
// itself, on the coroutine slot where the successor is parked, rather than
// through a channel send/receive pair (the Go runtime's park/unpark
// machinery) or a dispatcher goroutine between the two threads. Switches
// dominate the scheduler's cost. Exactly one thread executes at any
// moment. Given the same decisions the scheduler replays a run exactly;
// different seeds explore different interleavings. The scheduler is not
// part of InstantCheck itself — in real usage it is whatever testing tool
// the programmer already uses — but the checker needs one to drive test
// runs.
package sched

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"strings"
)

// ErrAborted is returned (wrapped) by Run when the run was cancelled via
// Abort — e.g. by the systematic-testing explorer pruning a schedule whose
// state was already visited.
var ErrAborted = errors.New("sched: run aborted")

// runAbort is the panic sentinel used to unwind thread coroutines cleanly
// during shutdown.
type runAbort struct{}

// Scheduler serializes n logical threads. Create one per run with New (or
// NewControlled), call Run with the body of each thread. A Scheduler
// cannot be reused across runs.
type Scheduler struct {
	n       int
	decider Decider
	// slots[tid] is the coroutine thread tid's goroutine was started in. A
	// coroutine switch on a slot swaps the calling goroutine with the one
	// parked there, so goroutines migrate between slots: at[tid] is the
	// slot where thread tid is parked, and Run's own goroutine waits in a
	// slot too whenever a thread runs.
	slots []slot
	at    []int
	// nextTid is the successor mailbox. A finishing thread nominates its
	// successor here before its goroutine exits through its own slot, and
	// the goroutine that exit wakes hands the CPU on. -1 means no successor
	// (all finished, or the run failed).
	nextTid int
	// curTid is the thread currently executing, set at every handoff to the
	// thread handed the CPU. It lets the per-operation Yield fast path take
	// no arguments at all, which keeps it (and the simulator's per-access
	// wrappers around it) within the compiler's inline budget.
	curTid      int
	runnable    []int    // ids of runnable threads
	runnablePos []int    // thread id -> index in runnable, or -1
	blocked     []string // thread id -> block reason, "" if not blocked
	blockedEp   []int    // thread id -> episode suffix for the reason, or -1
	finished    []bool
	nFinished   int
	untilSwitch int
	// lastBudget is the value untilSwitch was last refilled to and opsBase
	// the number of Yields consumed in earlier budget windows; together they
	// reconstruct the op count without a second counter update on the
	// per-operation fast path (Ops() = opsBase + lastBudget - untilSwitch).
	lastBudget int
	opsBase    uint64
	aborted    bool
	goexit     bool // a thread called runtime.Goexit
	err        error
}

// slot is one thread's iter.Pull coroutine, seen as a place to park: a
// switch on it resumes the goroutine parked there through next if that
// goroutine waits in yield, and through yield if it waits in next.
type slot struct {
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	inNext bool // the parked goroutine waits in next
	closed bool // the slot's own thread goroutine has exited
}

// New returns a scheduler for n threads using the default seeded random
// decider. interval sets the forced-preemption cadence: switch budgets are
// drawn uniformly on [1, 2*interval], so the mean number of operations
// between forced preemptions is interval + 0.5 (see randomDecider). Values
// <= 0 select the default of 8, which for the workload kernels in this
// repository gives rich interleaving variety at modest cost.
func New(n int, seed int64, interval int) *Scheduler {
	if interval <= 0 {
		interval = 8
	}
	return NewControlled(n, newRandomDecider(seed, interval))
}

// Inert returns a scheduler for instrumentation that runs outside any
// schedule, such as a program's single-threaded setup phase: Yield is a
// pure counter decrement that never consults a decider and never context-
// switches (the budget starts effectively infinite). Only Yield and Ops may
// be called on an inert scheduler.
func Inert() *Scheduler {
	const never = int(^uint(0) >> 1)
	return &Scheduler{untilSwitch: never, lastBudget: never, nextTid: -1, curTid: -1}
}

// NewControlled returns a scheduler driven by an explicit decision policy.
func NewControlled(n int, d Decider) *Scheduler {
	if n <= 0 {
		panic("sched: thread count must be positive")
	}
	if d == nil {
		panic("sched: nil decider")
	}
	s := &Scheduler{
		n:           n,
		decider:     d,
		slots:       make([]slot, n),
		at:          make([]int, n),
		nextTid:     -1,
		curTid:      -1, // no thread dispatched yet (see Decider.Pick)
		runnable:    make([]int, 0, n),
		runnablePos: make([]int, n),
		blocked:     make([]string, n),
		blockedEp:   make([]int, n),
		finished:    make([]bool, n),
	}
	for i := 0; i < n; i++ {
		s.at[i] = i
		s.runnablePos[i] = -1
		s.blockedEp[i] = -1
	}
	s.untilSwitch = d.SwitchBudget()
	s.lastBudget = s.untilSwitch
	return s
}

// N returns the number of threads.
func (s *Scheduler) N() int { return s.n }

// Ops returns the number of Yield points observed so far (a progress clock).
func (s *Scheduler) Ops() uint64 { return s.opsBase + uint64(s.lastBudget-s.untilSwitch) }

// Run executes body(tid) for every thread id in [0, n) under the
// serialized schedule and returns when all threads have finished. It
// returns an error if the run deadlocks, a thread panics, the decider
// panics once a thread runs (a panic in the first Pick reaches Run's
// caller), or the run is aborted. If a thread calls runtime.Goexit (as
// t.FailNow does), the run ends and Run's caller exits through
// runtime.Goexit too, as iter.Pull propagates it; either way every
// thread's goroutine has unwound first.
func (s *Scheduler) Run(body func(tid int)) error {
	for tid := 0; tid < s.n; tid++ {
		s.addRunnable(tid)
		s.slots[tid].next, _ = iter.Pull(s.thread(tid, body))
	}
	defer s.unwind()
	// Run's goroutine hands the CPU to the first thread and is woken only
	// when the slot it waits in closes; it then hands the CPU to the
	// successor the finished thread nominated.
	for next := s.pick(); next >= 0; next = s.nextTid {
		s.handoff(-1, next)
	}
	if s.goexit {
		runtime.Goexit()
	}
	return s.err
}

// thread returns thread tid's coroutine body. The coroutine starts when
// the thread is first handed the CPU, runs body(tid), and retires the
// thread or records why the run failed.
func (s *Scheduler) thread(tid int, body func(tid int)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		sl := &s.slots[tid]
		sl.yield = yield
		defer func() { sl.closed = true }()
		if s.aborted {
			return // the run ended before this thread was ever scheduled
		}
		returned := false
		defer func() {
			r := recover()
			switch {
			case returned:
				// finished, and finish nominated the successor
			case r == nil:
				// runtime.Goexit: the thread's own, or one propagated from
				// the slot it waited in by iter.Pull's next.
				s.goexit = true
				s.fail(fmt.Errorf("sched: thread %d called runtime.Goexit", tid))
			case r == runAbort{}:
				// unwound
			default:
				s.fail(fmt.Errorf("sched: thread %d panicked: %v", tid, r))
			}
		}()
		body(tid)
		s.finish(tid) // recovered too: a panicking Pick fails the run
		returned = true
	}
}

// handoff parks the calling goroutine (thread self, or Run's when self is
// -1) in the slot where thread next is parked, and resumes next there with
// one coroutine switch. It returns true when a later handoff resumes the
// caller, and false when the caller is woken instead by the exit of that
// slot's own thread goroutine.
func (s *Scheduler) handoff(self, next int) bool {
	s.curTid = next
	at := s.at[next]
	if self >= 0 {
		s.at[self] = at
	}
	sl := &s.slots[at]
	if sl.inNext {
		sl.inNext = false
		return sl.yield(struct{}{})
	}
	sl.inNext = true
	_, ok := sl.next()
	return ok
}

// unwind resumes every thread goroutine still parked so that it unwinds
// and exits: a thread that ran panics runAbort in switchTo, and one that
// never ran returns at once. Resuming one thread can unwind several, since
// each exit wakes the goroutine parked in the exiting thread's slot. Run
// defers unwind, so it also runs when a thread's runtime.Goexit reaches
// Run's goroutine, or the decider panics in Run's first Pick with the run
// not marked failed; hence the aborted mark, which no resumed thread runs
// past.
func (s *Scheduler) unwind() {
	s.aborted = true
	for tid := range s.slots {
		if !s.slots[tid].closed {
			s.handoff(-1, tid)
		}
	}
}

// Yield is a potential preemption point for the currently running thread,
// which calls it at every simulated operation; most calls return
// immediately, and the decider's switch budget determines when a real
// context-switch decision happens. The fast path is small enough to inline
// into the simulator's per-operation instrumentation (it takes no arguments
// — the scheduler already knows who is running); only budget exhaustion
// pays a call.
func (s *Scheduler) Yield() {
	s.untilSwitch--
	if s.untilSwitch > 0 {
		return
	}
	s.yieldSwitch()
}

// yieldSwitch is Yield's slow path: bank the consumed budget window into the
// op count, refill the switch budget, and let the decider pick who runs next.
func (s *Scheduler) yieldSwitch() {
	s.opsBase += uint64(s.lastBudget - s.untilSwitch)
	b := s.decider.SwitchBudget()
	s.untilSwitch = b
	s.lastBudget = b
	s.Preempt(s.curTid)
}

// Preempt forces a context-switch decision now: the decider picks a
// runnable thread to run next. The caller remains runnable.
func (s *Scheduler) Preempt(tid int) {
	next := s.pick()
	if next == tid {
		return
	}
	s.switchTo(tid, next)
}

// Block removes the calling thread from the runnable set, recording reason
// for deadlock diagnostics, and switches to another thread. It returns
// when some other thread calls Unpark for the caller and the scheduler
// later selects it.
func (s *Scheduler) Block(tid int, reason string) {
	s.BlockEp(tid, reason, -1)
}

// BlockEp is Block with an episode number appended to the diagnostic
// reason (rendered as "<reason> ep<ep>" when ep >= 0). Episodic primitives
// like barriers use it so the blocking hot path never formats a string;
// the suffix is only rendered if the run actually deadlocks.
func (s *Scheduler) BlockEp(tid int, reason string, ep int) {
	s.removeRunnable(tid)
	s.blocked[tid] = reason
	s.blockedEp[tid] = ep
	if len(s.runnable) == 0 {
		s.fail(s.deadlockError())
		panic(runAbort{})
	}
	s.switchTo(tid, s.pick())
}

// Unpark makes thread tid runnable again. It must be called by the running
// thread (or a barrier/mutex implementation executing on its behalf); it
// does not switch.
func (s *Scheduler) Unpark(tid int) {
	if s.finished[tid] {
		panic(fmt.Sprintf("sched: unpark of finished thread %d", tid))
	}
	if s.runnablePos[tid] >= 0 {
		return // already runnable
	}
	s.blocked[tid] = ""
	s.blockedEp[tid] = -1
	s.addRunnable(tid)
}

// Abort cancels the run from the currently running thread: every other
// thread is unwound, and Run returns an error wrapping both ErrAborted and
// reason. It does not return.
func (s *Scheduler) Abort(reason error) {
	s.fail(fmt.Errorf("%w: %w", ErrAborted, reason))
	panic(runAbort{})
}

// switchTo hands the CPU from the running thread tid to thread next and
// returns when the scheduler later selects tid again. If tid is woken
// instead by the exit of the thread whose slot it waits in, it hands the
// CPU on to the successor that thread nominated, which may be tid itself.
// It unwinds tid if the run was stopped in the meantime.
func (s *Scheduler) switchTo(tid, next int) {
	for next != tid && !s.aborted && !s.handoff(tid, next) {
		next = s.nextTid
	}
	if s.aborted {
		panic(runAbort{})
	}
}

// finish retires the calling thread and nominates its successor, or -1 if
// it was the last (or the run failed, or its exit leaves a deadlock).
func (s *Scheduler) finish(tid int) {
	s.finished[tid] = true
	s.nFinished++
	s.removeRunnable(tid)
	switch {
	case s.aborted, s.nFinished == s.n:
		s.nextTid = -1
	case len(s.runnable) == 0:
		s.fail(s.deadlockError())
	default:
		s.nextTid = s.pick()
		s.curTid = s.nextTid
	}
}

// fail records the first failure and marks the run aborted: every thread
// still parked unwinds when it is next resumed, and Run resumes each one.
func (s *Scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.aborted = true
	s.nextTid = -1
}

func (s *Scheduler) pick() int {
	if len(s.runnable) == 1 {
		return s.runnable[0]
	}
	return s.decider.Pick(s.curTid, s.runnable)
}

func (s *Scheduler) addRunnable(tid int) {
	if s.runnablePos[tid] >= 0 {
		return
	}
	s.runnablePos[tid] = len(s.runnable)
	s.runnable = append(s.runnable, tid)
}

func (s *Scheduler) removeRunnable(tid int) {
	pos := s.runnablePos[tid]
	if pos < 0 {
		return
	}
	last := len(s.runnable) - 1
	moved := s.runnable[last]
	s.runnable[pos] = moved
	s.runnablePos[moved] = pos
	s.runnable = s.runnable[:last]
	s.runnablePos[tid] = -1
}

func (s *Scheduler) deadlockError() error {
	var waiting []string
	for tid, reason := range s.blocked {
		if reason != "" && !s.finished[tid] {
			if ep := s.blockedEp[tid]; ep >= 0 {
				reason = fmt.Sprintf("%s ep%d", reason, ep)
			}
			waiting = append(waiting, fmt.Sprintf("thread %d: %s", tid, reason))
		}
	}
	sort.Strings(waiting)
	return fmt.Errorf("sched: deadlock, no runnable threads; blocked: [%s]", strings.Join(waiting, "; "))
}
