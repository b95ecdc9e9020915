package explore

import (
	"fmt"
	"strings"
	"testing"

	"instantcheck/internal/apps"
	"instantcheck/internal/mem"
	"instantcheck/internal/racefilter"
	"instantcheck/internal/sim"
)

// rareRaceProg has a narrow lost-update window: each round a thread runs
// filler loads and then one unlocked read-modify-write of a shared
// counter. A schedule only changes the outcome when a preemption lands
// between the load and the store AND the other thread increments in the
// gap, so runs-to-detect is genuinely schedule-seed dependent — the shape
// the strategy comparisons need.
type rareRaceProg struct {
	nt, rounds, filler int
	g, pad             uint64
}

func (p *rareRaceProg) Name() string { return "rareRace" }
func (p *rareRaceProg) Threads() int { return p.nt }
func (p *rareRaceProg) Setup(t *sim.Thread) {
	p.g = t.AllocStatic("static:G", 1, mem.KindWord)
	p.pad = t.AllocStatic("static:P", 1, mem.KindWord)
}
func (p *rareRaceProg) Worker(t *sim.Thread) {
	for r := 0; r < p.rounds; r++ {
		for i := 0; i < p.filler; i++ {
			t.Load(p.pad)
		}
		v := t.Load(p.g) // racy window opens
		t.Store(p.g, v+1)
	}
}

func buildRareRace() sim.Program {
	return &rareRaceProg{nt: 2, rounds: 6, filler: 40}
}

// TestNewStrategyRegistry checks every wire name resolves and junk is
// rejected.
func TestNewStrategyRegistry(t *testing.T) {
	o := Options{Threads: 2}
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name, o, 0)
		if err != nil {
			t.Fatalf("NewStrategy(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("NewStrategy(%q).Name() = %q", name, s.Name())
		}
	}
	if s, err := NewStrategy("", o, 0); err != nil || s.Name() != "uniform" {
		t.Errorf("empty name should default to uniform, got %v, %v", s, err)
	}
	if _, err := NewStrategy("bogus", o, 0); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestExploreDeterministicProgram checks no strategy invents
// nondeterminism: a fully locked, barrier-synchronized program must run
// the whole budget without a divergence under every strategy.
func TestExploreDeterministicProgram(t *testing.T) {
	build := func() sim.Program { return &commutativeProg{nt: 2, rounds: 3} }
	o := Options{Threads: 2, SwitchInterval: 4}
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name, o, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Explore(build, o, s, 6, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Found {
			t.Errorf("%s: false positive at run %d", name, out.DivergedRun)
		}
		if out.Runs != 6 {
			t.Errorf("%s: ran %d of budget 6 without finding anything", name, out.Runs)
		}
		if out.DistinctFinals != 1 {
			t.Errorf("%s: %d distinct final hashes on a deterministic program", name, out.DistinctFinals)
		}
	}
}

// TestExploreFixedSeedDeterministic checks the exploration itself is
// reproducible: same base seed, same campaign, run for run — and that the
// base seed actually matters (different bases explore different schedule
// sequences, so runs-to-detect varies).
func TestExploreFixedSeedDeterministic(t *testing.T) {
	o := Options{Threads: 2, SwitchInterval: 16, ScheduleSeed: 42}
	a, err := Explore(buildRareRace, o, Uniform(o.ScheduleSeed), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(buildRareRace, o, Uniform(o.ScheduleSeed), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same seed, different outcomes: %+v vs %+v", a, b)
	}

	runs := make(map[int]bool)
	for base := int64(0); base < 8; base++ {
		out, err := Explore(buildRareRace, Options{Threads: 2, SwitchInterval: 16}, Uniform(base), 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Found {
			continue
		}
		runs[out.DivergedRun] = true
	}
	if len(runs) < 2 {
		t.Errorf("8 base seeds produced runs-to-detect %v — base seed is not reaching the schedules", runs)
	}
}

// TestPCTStrategyCalibrates checks the two-phase PCT flow: run 0 is a
// uniform calibration run whose scheduler-op count becomes the
// change-point budget, and later runs carry PCT deciders.
func TestPCTStrategyCalibrates(t *testing.T) {
	build := func() sim.Program { return &commutativeProg{nt: 2, rounds: 3} }
	s := NewPCTStrategy(2, 0, 3)
	out, err := Explore(build, Options{Threads: 2}, s, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found {
		t.Error("false positive on the commutative program")
	}
	ps := s.(*pctStrategy)
	if ps.estimate == 0 {
		t.Error("calibration run did not record a scheduler-op budget")
	}
	if p := s.Plan(1); p.Decider == nil {
		t.Error("post-calibration runs should carry a PCT decider")
	}
}

// TestCoverageStrategyFindsRareRace checks the coverage loop end to end:
// the recording decider, the frontier, and prefix replay all compose into
// a campaign that still detects the rare lost update.
func TestCoverageStrategyFindsRareRace(t *testing.T) {
	o := Options{Threads: 2, SwitchInterval: 16}
	s := CoverageGuided(0, o.SwitchInterval)
	out, err := Explore(buildRareRace, o, s, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatalf("coverage-guided search missed the lost update in %d runs", out.Runs)
	}
	if out.DistinctOutcomes < 2 {
		t.Errorf("found a divergence but recorded %d distinct outcomes", out.DistinctOutcomes)
	}
}

// TestRaceDirectedStrategyDynamicHints checks the strategy's plumbing:
// the first runs execute under the happens-before detector, the racy
// sites it reports become preemption hints, and the directed runs surface
// the Figure 7(b) bug within a 40-run budget.
func TestRaceDirectedStrategyDynamicHints(t *testing.T) {
	build := func() sim.Program {
		return apps.ByName("waterSP").Build(apps.Options{
			Threads: 4, Small: true, Bug: apps.BugAtomicity,
		})
	}
	// Long switch interval: random preemptions rarely land inside the
	// ~4-op unlocked read-modify-write, so hints are what finds it.
	o := Options{Threads: 4, RoundFP: true, InputSeed: 1, SwitchInterval: 4000}
	const budget = 40

	s := RaceDirected(4, 0)
	out, err := Explore(build, o, s, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatalf("dynamic race-directed search missed the bug in %d runs", out.Runs)
	}
	if out.Hits == 0 {
		t.Error("no directed preemptions fired: detector-to-hint plumbing is broken")
	}
	if len(s.(*raceDirectedStrategy).sites) == 0 {
		t.Error("detection runs harvested no racy sites")
	}
	t.Logf("dynamic hints: found at run %d with %d directed preemptions, %d hinted sites",
		out.DivergedRun, out.Hits, len(s.(*raceDirectedStrategy).sites))
}

// TestExploreRejectsBadThreads checks that Explore refuses a thread count
// the race detector cannot hold, or none, before it builds a program:
// race-directed search would otherwise panic in its first Plan.
func TestExploreRejectsBadThreads(t *testing.T) {
	build := func() sim.Program {
		t.Fatal("Explore built a program for an out-of-range thread count")
		return nil
	}
	for _, threads := range []int{0, racefilter.MaxThreads + 1} {
		o := Options{Threads: threads}
		out, err := Explore(build, o, RaceDirected(threads, 0), 3, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("threads = %d", threads)) {
			t.Errorf("Explore with %d threads: %+v, %v; want a threads error", threads, out, err)
		}
	}
}

// TestExploreOnRunHook checks the per-run callback sees every executed
// run and can abort the campaign.
func TestExploreOnRunHook(t *testing.T) {
	build := func() sim.Program { return &commutativeProg{nt: 2, rounds: 2} }
	var seen []int
	out, err := Explore(build, Options{Threads: 2}, Uniform(0), 3,
		func(run int, res *sim.Result) error {
			if res == nil {
				t.Fatal("nil result in onRun")
			}
			seen = append(seen, run)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Runs != 3 || len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Errorf("onRun saw %v for %d runs", seen, out.Runs)
	}
}
