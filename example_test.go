package instantcheck_test

import (
	"fmt"

	"instantcheck"
	"instantcheck/internal/mem"
)

// figure1 is the paper's running example: two threads add their local
// values to a shared global under a lock. The lock-acquisition order is
// nondeterministic, but every run ends with G == 12.
type figure1 struct {
	g  uint64
	mu *instantcheck.Mutex
}

func (p *figure1) Name() string { return "figure1" }
func (p *figure1) Threads() int { return 2 }
func (p *figure1) Setup(t *instantcheck.Thread) {
	p.g = t.AllocStatic("static:G", 1, mem.KindWord)
	t.Store(p.g, 2)
	p.mu = t.Machine().NewMutex("G")
}
func (p *figure1) Worker(t *instantcheck.Thread) {
	l := []uint64{7, 3}[t.TID()]
	t.Lock(p.mu)
	t.Store(p.g, t.Load(p.g)+l)
	t.Unlock(p.mu)
}

// ExampleNewMachine runs the Figure 1 program directly on the machine,
// once per schedule seed. The threads race for the lock, so the order of
// the two updates differs between runs (the program is internally
// nondeterministic), yet every run ends with G == 12 and the same final
// State Hash: the program is externally deterministic, the property
// InstantCheck checks.
func ExampleNewMachine() {
	finalSH := map[instantcheck.Digest]int{}
	for seed := int64(1); seed <= 10; seed++ {
		m := instantcheck.NewMachine(instantcheck.MachineConfig{Threads: 2, ScheduleSeed: seed, Scheme: instantcheck.HWInc})
		res, err := m.Run(&figure1{})
		if err != nil {
			panic(err)
		}
		finalSH[res.FinalSH()]++
	}
	fmt.Println("final State Hash -> runs:", finalSH)
	// Output:
	// final State Hash -> runs: map[894a7a91c238c638:10]
}

// printer stands in for the *testing.T a test passes to
// AssertDeterministic: it prints the report the test would fail with.
type printer struct{}

func (printer) Helper()                           {}
func (printer) Fatalf(format string, args ...any) { fmt.Printf(format, args...) }

// ExampleAssertDeterministic walks the paper's bug-finding workflow (§2.3,
// §7.4) on the radix order violation of Figure 7(c): thread 3 skips a flag
// wait once, in the last pass. The guard reports radix nondeterministic,
// localizes the divergence between two checkpoints, re-executes the two
// differing runs and diffs their states there, mapping every differing
// word back to its allocation site and offset.
func ExampleAssertDeterministic() {
	radix := instantcheck.WorkloadByName("radix")
	instantcheck.AssertDeterministic(printer{},
		instantcheck.Campaign{Runs: 10, Threads: 4},
		radix.Builder(instantcheck.WorkloadOptions{Threads: 4, Small: true, Bug: instantcheck.BugOrder}))
	// Output:
	// radix is externally NONDETERMINISTIC: 4 of 12 checking points differ across 10 runs (first detected in run 2)
	// nondeterminism localized between checkpoint 7 (radix.hist) and checkpoint 8 (radix.perm)
	// state diff of runs 1 and 2 at the first divergence:
	// 11 differing words
	//   site static:radix.b#0                 11 words at offsets [1,2,3,4,6,20,177,192,221,240,255]
	//   0x000000010808  static:radix.b#0+1           0xc2b != 0x455
	//   0x000000010810  static:radix.b#0+2           0xc64 != 0xc2b
	//   0x000000010818  static:radix.b#0+3           0xcb2 != 0xc64
	//   0x000000010820  static:radix.b#0+4           0x16a4 != 0xcb2
	//   0x000000010830  static:radix.b#0+6           0x3fa41 != 0x16a4
	//   0x0000000108a0  static:radix.b#0+20          0x68e5 != 0x6510
	//   0x000000010d88  static:radix.b#0+177         0x2a75b != 0x2a492
	//   0x000000010e00  static:radix.b#0+192         0x2ef13 != 0x2e6b8
	//   0x000000010ee8  static:radix.b#0+221         0x35e93 != 0x3660b
	//   0x000000010f80  static:radix.b#0+240         0x3cd7c != 0x3d5f3
	//   0x000000010ff8  static:radix.b#0+255         0x3fd5d != 0x3fa41
}

// ExampleIgnoreSet isolates small nondeterministic structures from the
// state hash (§2.2, §7.2): cholesky stays nondeterministic after FP
// rounding because of its free-task list, and deleting that one structure
// from every hash (the paper's minus_hash/plus_hash idiom) shows that the
// rest of its state is deterministic. Restoring cholesky's original racy
// pool allocator, which the ignore set does not cover, keeps it
// nondeterministic.
func ExampleIgnoreSet() {
	cholesky := instantcheck.WorkloadByName("cholesky")
	ignore := cholesky.IgnoreSet()
	for _, r := range ignore.Rules() {
		fmt.Println("ignored site:", r.Site)
	}
	for _, c := range []struct {
		label   string
		camp    instantcheck.Campaign
		rawPool bool
	}{
		{"bit-by-bit", instantcheck.Campaign{}, false},
		{"FP rounding", instantcheck.Campaign{RoundFP: true}, false},
		{"FP rounding + ignore set", instantcheck.Campaign{RoundFP: true, Ignore: ignore}, false},
		{"raw pool, FP rounding + ignore set", instantcheck.Campaign{RoundFP: true, Ignore: ignore}, true},
	} {
		c.camp.Runs, c.camp.Threads = 10, 4
		rep, err := instantcheck.Check(c.camp, cholesky.Builder(instantcheck.WorkloadOptions{
			Threads: 4, Small: true, RawCustomAlloc: c.rawPool,
		}))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-36s deterministic %-5v (%d of %d points ndet)\n",
			c.label+":", rep.Deterministic(), rep.NDetPoints, rep.Points())
	}
	// Output:
	// ignored site: cholesky.taskNode
	// ignored site: static:ch.freeHeads
	// bit-by-bit:                          deterministic false (3 of 4 points ndet)
	// FP rounding:                         deterministic false (3 of 4 points ndet)
	// FP rounding + ignore set:            deterministic true  (0 of 4 points ndet)
	// raw pool, FP rounding + ignore set:  deterministic false (3 of 4 points ndet)
}

// ExampleRoundFloorDecimal compares the FP round-off policies (§3.1) on
// ocean: its relaxation grid is bit-by-bit deterministic, but its residual
// reduces into one shared accumulator under a lock, in schedule order, and
// FP addition is not associative. Bit-by-bit comparison flags ocean
// nondeterministic; each policy rounds values in front of the hash unit,
// while the program still runs at full precision, and finds it
// deterministic. Flooring to N decimal digits discards small absolute
// differences (N = 3 is the paper's default); zeroing M mantissa bits
// discards small relative ones.
func ExampleRoundFloorDecimal() {
	ocean := instantcheck.WorkloadByName("ocean")
	for _, c := range []struct {
		label string
		camp  instantcheck.Campaign
	}{
		{"bit-by-bit", instantcheck.Campaign{}},
		{"floor to 0.001 (default)", instantcheck.Campaign{RoundFP: true}},
		{"floor to 6 decimal digits", instantcheck.Campaign{RoundFP: true, Rounding: instantcheck.RoundFloorDecimal(6)}},
		{"zero 24 mantissa bits", instantcheck.Campaign{RoundFP: true, Rounding: instantcheck.RoundZeroMantissa(24)}},
	} {
		c.camp.Threads = 4
		rep, err := instantcheck.Check(c.camp, ocean.Builder(instantcheck.WorkloadOptions{Threads: 4, Small: true}))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-26s %d of %d points ndet\n", c.label+":", rep.NDetPoints, rep.Points())
	}
	// Output:
	// bit-by-bit:                11 of 37 points ndet
	// floor to 0.001 (default):  0 of 37 points ndet
	// floor to 6 decimal digits: 0 of 37 points ndet
	// zero 24 mantissa bits:     0 of 37 points ndet
}

// ExampleCheck runs a determinism-checking campaign on the paper's
// Figure 1 program: internally nondeterministic, externally deterministic.
func ExampleCheck() {
	rep, err := instantcheck.Check(
		instantcheck.Campaign{Runs: 30, Threads: 2},
		func() instantcheck.Program { return &figure1{} },
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("deterministic:", rep.Deterministic())
	fmt.Println("checking points:", rep.Points())
	// Output:
	// deterministic: true
	// checking points: 1
}

// ExampleCharacterize classifies a workload into the paper's Table 1
// taxonomy: ocean's racy-order FP residual makes it nondeterministic
// bit-by-bit but deterministic after rounding.
func ExampleCharacterize() {
	app := instantcheck.WorkloadByName("ocean")
	ch, err := instantcheck.Characterize(
		instantcheck.Campaign{Runs: 8, Threads: 4},
		app.Builder(instantcheck.WorkloadOptions{Threads: 4, Small: true}),
		nil,
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("class:", ch.Class)
	fmt.Println("bit-by-bit deterministic:", ch.BitByBit.Deterministic())
	fmt.Println("after rounding:", ch.AfterRounding.Deterministic())
	// Output:
	// class: FP-prec
	// bit-by-bit deterministic: false
	// after rounding: true
}

// ExampleClassifyRaces filters benign data races by comparing states, not
// access patterns (paper §6.1): volrend's hand-coded barrier races on
// every run but never changes the outcome, while canneal's racy cost reads
// steer its final placement.
func ExampleClassifyRaces() {
	for _, name := range []string{"volrend", "canneal"} {
		app := instantcheck.WorkloadByName(name)
		cl, err := instantcheck.ClassifyRaces(
			app.Builder(instantcheck.WorkloadOptions{Threads: 4, Small: true}),
			instantcheck.RaceConfig{Threads: 4, Runs: 8},
		)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d races, %d benign (externally deterministic: %v)\n",
			name, len(cl.Verdicts), cl.BenignCount(), cl.Deterministic)
	}
	// Output:
	// volrend: 5 races, 5 benign (externally deterministic: true)
	// canneal: 68 races, 0 benign (externally deterministic: false)
}

// rounds iterates the Figure 1 pattern: each thread adds its local value
// under the lock, then waits at a barrier, n times.
type rounds struct {
	figure1
	n   int
	bar *instantcheck.Barrier
}

func (p *rounds) Setup(t *instantcheck.Thread) {
	p.figure1.Setup(t)
	p.bar = t.Machine().NewBarrier("round")
}
func (p *rounds) Worker(t *instantcheck.Thread) {
	for r := 0; r < p.n; r++ {
		p.figure1.Worker(t)
		t.BarrierWait(p.bar)
	}
}

// ExampleSystematic enumerates the schedule tree of a lock-commutative
// program (§6.2), with and without state-hash pruning at quiescent
// checkpoints. The two lock orders of each round reach identical states
// through different happens-before orders, so only state comparison can
// merge them.
func ExampleSystematic() {
	build := func() instantcheck.Program { return &rounds{n: 3} }
	opts := instantcheck.SystematicOptions{Threads: 2, PreemptEvery: 2, MaxRuns: 100000}
	for _, prune := range []bool{false, true} {
		opts.Prune = prune
		res, err := instantcheck.Systematic(build, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("prune=%v: %d schedules, %d cut at visited states, %d final state(s)\n",
			prune, res.Runs, res.PrunedRuns, len(res.FinalStates))
	}
	// Output:
	// prune=false: 896 schedules, 0 cut at visited states, 1 final state(s)
	// prune=true: 23 schedules, 21 cut at visited states, 1 final state(s)
}

// ExampleRecordReplayLog records the per-checkpoint hash log of a
// nondeterministic execution (§6.3): waterSP with its Figure 7(b)
// atomicity bug seeded. Searching candidate schedules against the log
// kills each diverging candidate at its first mismatching checkpoint, and
// a match provably reproduces the entire state.
func ExampleRecordReplayLog() {
	waterSP := instantcheck.WorkloadByName("waterSP")
	build := waterSP.Builder(instantcheck.WorkloadOptions{Threads: 4, Small: true, Bug: instantcheck.BugAtomicity})
	log, err := instantcheck.RecordReplayLog(build, instantcheck.ReplayConfig{Threads: 4, RoundFP: true}, 7)
	if err != nil {
		panic(err)
	}
	res, err := log.Search(build, 1000, 300)
	if err != nil {
		panic(err)
	}
	fmt.Printf("log: %d checkpoint hashes\n", len(log.Hashes))
	fmt.Printf("searched %d candidates: found %v (seed %d)\n", len(res.Attempts), res.Found, res.Seed)
	fmt.Printf("executed %d of %d checkpoints\n", res.CheckpointsExecuted, len(res.Attempts)*len(log.Hashes))
	// Output:
	// log: 13 checkpoint hashes
	// searched 2 candidates: found true (seed 1001)
	// executed 21 of 26 checkpoints
}
