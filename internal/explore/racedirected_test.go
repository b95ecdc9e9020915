package explore

import (
	"testing"

	"instantcheck/internal/analysis"
	"instantcheck/internal/apps"
	"instantcheck/internal/sim"
)

// waterPotHints derives preemption hints from the static race report:
// the unsuppressed waterProg pairs on the shared potential accumulator —
// exactly what `icvet race` points a tester at.
func waterPotHints(t *testing.T) []RaceHint {
	t.Helper()
	loader, err := analysis.NewLoader("../apps")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.Load("../apps")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var hints []RaceHint
	for _, p := range analysis.RaceCheck(pkg).Active() {
		if p.Program == "waterProg" && p.Region == "static:w.pot" {
			hints = append(hints, RaceHint{SiteA: p.A.FileLine(), SiteB: p.B.FileLine()})
		}
	}
	if len(hints) == 0 {
		t.Fatal("static report has no waterProg w.pot pairs to direct with")
	}
	return hints
}

// TestRaceDirectedFindsWaterSPBug reproduces the paper's Figure 7(b)
// hunt: waterSP with the seeded atomicity violation is deterministic
// under FP rounding unless a preemption lands inside thread 3's unlocked
// read-modify-write of the global energy. Directed search — forcing a
// scheduling decision at each statically-implicated site — must surface
// a differing State Hash in strictly fewer runs than uniform random search
// over the same seeds.
func TestRaceDirectedFindsWaterSPBug(t *testing.T) {
	hints := waterPotHints(t)
	build := func() sim.Program {
		return apps.ByName("waterSP").Build(apps.Options{
			Threads: 4, Small: true, Bug: apps.BugAtomicity,
		})
	}
	// A long switch interval models realistic stress testing: random
	// preemptions are rare, so the ~4-op racy window is almost never hit
	// by chance — the regime where the hints matter.
	o := Options{Threads: 4, RoundFP: true, InputSeed: 1, SwitchInterval: 4000}
	const maxRuns = 60

	directed, err := Explore(build, o, RaceDirected(o.Threads, o.ScheduleSeed, hints), maxRuns, nil)
	if err != nil {
		t.Fatalf("directed search: %v", err)
	}
	if !directed.Found {
		t.Fatalf("directed search missed the Figure 7(b) bug in %d runs", directed.Runs)
	}
	if directed.Hits == 0 {
		t.Error("directed search fired no preemption hints: site matching is broken")
	}

	uniform, err := Explore(build, o, Uniform(o.ScheduleSeed), maxRuns, nil)
	if err != nil {
		t.Fatalf("uniform search: %v", err)
	}
	if uniform.Found && uniform.DivergedRun <= directed.DivergedRun {
		t.Errorf("uniform search found the bug in %d runs, directed needed %d — hints are not helping",
			uniform.DivergedRun, directed.DivergedRun)
	}
	t.Logf("directed: found in %d runs (%d hint preemptions); uniform: found=%v in %d runs",
		directed.DivergedRun, directed.Hits, uniform.Found, uniform.Runs)
}

// TestRaceDirectedCleanProgram checks directed search reports no
// nondeterminism on the unseeded waterSP: the hints point at the locked
// reduction, and preempting inside a correctly locked critical section
// must not change the outcome.
func TestRaceDirectedCleanProgram(t *testing.T) {
	hints := waterPotHints(t)
	build := func() sim.Program {
		return apps.ByName("waterSP").Build(apps.Options{Threads: 4, Small: true})
	}
	res, err := Explore(build, Options{Threads: 4, RoundFP: true, InputSeed: 1}, RaceDirected(4, 0, hints), 8, nil)
	if err != nil {
		t.Fatalf("directed search: %v", err)
	}
	if res.Found {
		t.Errorf("directed search reports nondeterminism on the clean program after %d runs", res.Runs)
	}
}
