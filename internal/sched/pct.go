package sched

import (
	"math/rand"
	"sort"
)

// PCT implements probabilistic concurrency testing (Burckhardt et al.,
// ASPLOS 2010) as a Decider: every thread gets a random priority, the
// highest-priority runnable thread always runs, and d priority-change
// points — operation ordinals drawn uniformly over the run's operation
// budget — each demote the running thread below every initial priority.
// For a bug of depth d the schedule triggers it with probability >=
// 1/(n*k^(d-1)) per run, which for the ordering bugs this repository seeds
// is a far better per-run hit rate than uniform random switching.
//
// PCT assumes switch points are yields or blocking operations; the
// workload kernels here also contain hand-coded spin loops (sense
// barriers, flag waits), which strict priority scheduling would livelock:
// the spinning thread stays highest-priority forever while the thread that
// would satisfy it never runs. The decider therefore re-arms a bounded
// spin guard whenever no change point is near: a thread observed running
// alone across consecutive guard windows is demoted like at a change
// point, which preserves liveness and costs at most schedule noise.
type PCT struct {
	rng  *rand.Rand
	prio []int // per-tid priority, higher runs first; always distinct
	// change holds the d priority-change operation ordinals, sorted;
	// next indexes the first one not yet fired.
	change []uint64
	next   int
	ops    uint64 // operations consumed by completed budget windows
	budget int    // the window handed out by the last SwitchBudget call

	// Change points fire between SwitchBudget (which lands a window edge
	// on the ordinal) and the Pick that follows it; pendingDemote
	// carries the intent across the two calls.
	pendingDemote bool
	minPrio       int // floor for demotions, decreases monotonically
	sameRuns      int // consecutive solo guard windows (spin detection)
}

// pctSpinGuard bounds how long a thread may run alone before the spin
// guard demotes it (in operations, as consecutive guard windows).
const (
	pctSpinGuardOps  = 4096
	pctSpinGuardTrip = 3
)

// NewPCT builds a PCT decider for n threads with d priority-change points
// spread over opBudget operations (the expected run length; estimates
// within a few x of the truth preserve PCT's guarantee in practice).
// Priorities and change points derive from seed alone.
func NewPCT(n, d int, opBudget uint64, seed int64) *PCT {
	if n <= 0 {
		panic("sched: PCT thread count must be positive")
	}
	if d < 0 {
		d = 0
	}
	if opBudget == 0 {
		opBudget = 1
	}
	rng := rand.New(rand.NewSource(seed))
	p := &PCT{rng: rng, prio: rng.Perm(n)}
	for i := range p.prio {
		p.prio[i] += d // keep initial priorities above every demotion slot
	}
	p.change = make([]uint64, d)
	for i := range p.change {
		p.change[i] = 1 + uint64(rng.Int63n(int64(opBudget)))
	}
	sort.Slice(p.change, func(i, j int) bool { return p.change[i] < p.change[j] })
	return p
}

// SwitchBudget implements Decider: run until the next change point (or the
// spin guard, whichever is nearer), and note when a change point is due so
// the following Pick performs the demotion.
func (p *PCT) SwitchBudget() int {
	p.ops += uint64(p.budget)
	if p.next < len(p.change) && p.ops >= p.change[p.next] {
		p.pendingDemote = true
		p.next++
	}
	b := uint64(pctSpinGuardOps)
	if p.next < len(p.change) {
		if d := p.change[p.next] - p.ops; d < b {
			b = d
		}
	}
	if b < 1 {
		b = 1
	}
	p.budget = int(b)
	return p.budget
}

// Pick implements Decider: demote cur if a change point just fired or the
// spin guard tripped, then run the highest-priority runnable thread.
// Priority scheduling needs thread identities, not positions: the
// runnable list's order is an artifact of the scheduler's swap-removal
// bookkeeping.
func (p *PCT) Pick(cur int, runnable []int) int {
	if p.pendingDemote && cur >= 0 {
		p.pendingDemote = false
		p.demote(cur)
	}
	best := p.argmax(runnable)
	// Spin guard: a thread that keeps winning every forced switch without
	// ever blocking is either spinning on a flag only a lower-priority
	// thread can set, or just compute-heavy; demoting it is correct either
	// way and unblocks the former.
	if best == cur && p.contains(runnable, cur) {
		if p.sameRuns++; p.sameRuns >= pctSpinGuardTrip {
			p.sameRuns = 0
			p.demote(cur)
			best = p.argmax(runnable)
		}
	} else {
		p.sameRuns = 0
	}
	return best
}

// demote moves tid below every other priority assigned so far.
func (p *PCT) demote(tid int) {
	p.minPrio--
	p.prio[tid] = p.minPrio
}

func (p *PCT) argmax(runnable []int) int {
	best := runnable[0]
	for _, tid := range runnable[1:] {
		if p.prio[tid] > p.prio[best] {
			best = tid
		}
	}
	return best
}

func (p *PCT) contains(runnable []int, tid int) bool {
	for _, t := range runnable {
		if t == tid {
			return true
		}
	}
	return false
}
