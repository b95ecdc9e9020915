package explore

import (
	"testing"

	"instantcheck/internal/mem"
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// commutativeProg is the Figure 1 pattern iterated: every round each
// thread adds a per-thread constant to a shared counter under a lock, then
// everyone meets at a barrier. All interleavings of a round commute, so
// every schedule reaches the same state at every barrier — the case where
// happens-before pruning fails (different lock orders have different
// happens-before) but state-hash pruning collapses the tree.
type commutativeProg struct {
	nt, rounds int
	g          uint64
	mu         *sched.Mutex
	bar        *sched.Barrier
}

func (p *commutativeProg) Name() string { return "commutative" }
func (p *commutativeProg) Threads() int { return p.nt }
func (p *commutativeProg) Setup(t *sim.Thread) {
	p.g = t.AllocStatic("static:G", 1, mem.KindWord)
	t.Store(p.g, 2)
	p.mu = t.Machine().NewMutex("G")
	p.bar = t.Machine().NewBarrier("round")
}
func (p *commutativeProg) Worker(t *sim.Thread) {
	l := uint64(7)
	if t.TID() == 1 {
		l = 3
	}
	for r := 0; r < p.rounds; r++ {
		t.Lock(p.mu)
		t.Store(p.g, t.Load(p.g)+l)
		t.Unlock(p.mu)
		t.BarrierWait(p.bar)
	}
}

// racyProg has a genuine last-writer-wins race each round: schedules reach
// different states, which pruning must never conflate.
type racyProg struct {
	nt, rounds int
	g          uint64
	bar        *sched.Barrier
}

func (p *racyProg) Name() string { return "racy" }
func (p *racyProg) Threads() int { return p.nt }
func (p *racyProg) Setup(t *sim.Thread) {
	p.g = t.AllocStatic("static:G", 1, mem.KindWord)
	p.bar = t.Machine().NewBarrier("round")
}
func (p *racyProg) Worker(t *sim.Thread) {
	for r := 0; r < p.rounds; r++ {
		t.Store(p.g, uint64(t.TID())+1) // last writer wins
		t.BarrierWait(p.bar)
	}
}

// TestPruningCollapsesCommutativeTree checks the §6.2 claim: for the
// Figure 1 pattern, state pruning explores far fewer schedules than
// exhaustive enumeration while reaching the same conclusion.
func TestPruningCollapsesCommutativeTree(t *testing.T) {
	build := func() sim.Program { return &commutativeProg{nt: 2, rounds: 3} }
	opts := Options{Threads: 2, PreemptEvery: 2, MaxRuns: 50000}

	full, err := Systematic(build, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Exhausted {
		t.Fatalf("unpruned exploration did not exhaust the tree in %d runs", full.Runs)
	}
	if !full.Deterministic() {
		t.Fatalf("commutative program has %d final states", len(full.FinalStates))
	}

	opts.Prune = true
	pruned, err := Systematic(build, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Exhausted {
		t.Fatal("pruned exploration did not exhaust")
	}
	if !pruned.Deterministic() {
		t.Fatal("pruning changed the verdict")
	}
	if pruned.Runs >= full.Runs {
		t.Errorf("pruning explored %d runs, unpruned %d — no savings", pruned.Runs, full.Runs)
	}
	if pruned.PrunedRuns == 0 {
		t.Error("no runs were pruned")
	}
	// Both modes exhaust the tree, so they must visit the same distinct
	// states — pruning skips re-visits, not states.
	if full.StatesSeen != pruned.StatesSeen {
		t.Errorf("StatesSeen drifted: %d unpruned vs %d pruned", full.StatesSeen, pruned.StatesSeen)
	}
	t.Logf("schedules: %d unpruned vs %d pruned (%d cut early)", full.Runs, pruned.Runs, pruned.PrunedRuns)
}

// TestPruningPreservesFinalStates checks soundness on a racy program: the
// set of distinct final states found must be identical with and without
// pruning.
func TestPruningPreservesFinalStates(t *testing.T) {
	build := func() sim.Program { return &racyProg{nt: 2, rounds: 2} }
	opts := Options{Threads: 2, PreemptEvery: 1, MaxRuns: 50000}

	full, err := Systematic(build, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prune = true
	pruned, err := Systematic(build, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Exhausted || !pruned.Exhausted {
		t.Fatalf("not exhausted: full=%v pruned=%v (runs %d/%d)", full.Exhausted, pruned.Exhausted, full.Runs, pruned.Runs)
	}
	if len(full.FinalStates) < 2 {
		t.Fatalf("racy program should reach multiple final states, got %d", len(full.FinalStates))
	}
	for sh := range full.FinalStates {
		if _, ok := pruned.FinalStates[sh]; !ok {
			t.Errorf("pruning lost final state %s", sh)
		}
	}
	for sh := range pruned.FinalStates {
		if _, ok := full.FinalStates[sh]; !ok {
			t.Errorf("pruning invented final state %s", sh)
		}
	}
	if pruned.Runs > full.Runs {
		t.Errorf("pruning increased work: %d > %d", pruned.Runs, full.Runs)
	}
	if full.StatesSeen != pruned.StatesSeen {
		t.Errorf("StatesSeen drifted: %d unpruned vs %d pruned", full.StatesSeen, pruned.StatesSeen)
	}
}

// TestExhaustedBoundary pins the Exhausted flag at the budget edge: a
// budget of exactly the tree size exhausts, one less truncates.
func TestExhaustedBoundary(t *testing.T) {
	build := func() sim.Program { return &commutativeProg{nt: 2, rounds: 2} }
	full, err := Systematic(build, Options{Threads: 2, PreemptEvery: 2, MaxRuns: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Exhausted || full.Runs < 2 {
		t.Fatalf("need a small exhaustible tree, got exhausted=%v runs=%d", full.Exhausted, full.Runs)
	}

	exact, err := Systematic(build, Options{Threads: 2, PreemptEvery: 2, MaxRuns: full.Runs})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exhausted {
		t.Errorf("budget %d = tree size should exhaust", full.Runs)
	}
	if exact.Runs != full.Runs {
		t.Errorf("exact budget ran %d schedules, want %d", exact.Runs, full.Runs)
	}

	short, err := Systematic(build, Options{Threads: 2, PreemptEvery: 2, MaxRuns: full.Runs - 1})
	if err != nil {
		t.Fatal(err)
	}
	if short.Exhausted {
		t.Errorf("budget %d < tree size %d must not report Exhausted", full.Runs-1, full.Runs)
	}
	if short.Runs != full.Runs-1 {
		t.Errorf("truncated search ran %d schedules, budget %d", short.Runs, full.Runs-1)
	}
}

// TestNonPreemptiveExploration checks the blocking-points-only mode.
func TestNonPreemptiveExploration(t *testing.T) {
	build := func() sim.Program { return &commutativeProg{nt: 3, rounds: 2} }
	res, err := Systematic(build, Options{Threads: 3, MaxRuns: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatal("non-preemptive tree should be small")
	}
	if !res.Deterministic() {
		t.Error("verdict")
	}
	if res.Runs < 2 {
		t.Errorf("only %d schedules — barrier arrival orders should branch", res.Runs)
	}
}

// TestMaxRunsBound checks the exploration budget is honored.
func TestMaxRunsBound(t *testing.T) {
	build := func() sim.Program { return &commutativeProg{nt: 3, rounds: 4} }
	res, err := Systematic(build, Options{Threads: 3, PreemptEvery: 1, MaxRuns: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs > 25 {
		t.Errorf("ran %d schedules, budget 25", res.Runs)
	}
	if res.Exhausted {
		t.Error("this tree cannot be exhausted in 25 runs")
	}
}

// TestMaxDecisionsBound checks depth bounding (CHESS-style).
func TestMaxDecisionsBound(t *testing.T) {
	build := func() sim.Program { return &commutativeProg{nt: 2, rounds: 4} }
	shallow, err := Systematic(build, Options{Threads: 2, PreemptEvery: 1, MaxDecisions: 3, MaxRuns: 50000})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Systematic(build, Options{Threads: 2, PreemptEvery: 1, MaxDecisions: 8, MaxRuns: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if !shallow.Exhausted || !deep.Exhausted {
		t.Fatal("bounded trees should exhaust")
	}
	if shallow.Runs >= deep.Runs {
		t.Errorf("depth bound did not shrink the tree: %d vs %d", shallow.Runs, deep.Runs)
	}
}

// TestOptionsValidation checks the guards.
func TestOptionsValidation(t *testing.T) {
	if _, err := Systematic(nil, Options{}); err == nil {
		t.Error("zero threads accepted")
	}
}
