package explore

import (
	"testing"

	"instantcheck/internal/apps"
	"instantcheck/internal/sim"
)

// TestRaceDirectedFindsWaterSPBug reproduces the paper's Figure 7(b)
// hunt: waterSP with the seeded atomicity violation is deterministic
// under FP rounding unless a preemption lands inside thread 3's unlocked
// read-modify-write of the global energy. Directed search — forcing a
// scheduling decision at each site of a race the detection runs
// reported — must surface a differing State Hash in strictly fewer runs
// than uniform random search over the same seeds.
func TestRaceDirectedFindsWaterSPBug(t *testing.T) {
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

	directed, err := Explore(build, o, RaceDirected(o.Threads, o.ScheduleSeed), maxRuns, nil)
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

// TestRaceDirectedCleanProgram checks directed search on the unseeded
// waterSP, whose reduction is locked: the detection runs report no racy
// site, so no preemption is forced, and no run may report nondeterminism.
func TestRaceDirectedCleanProgram(t *testing.T) {
	build := func() sim.Program {
		return apps.ByName("waterSP").Build(apps.Options{Threads: 4, Small: true})
	}
	res, err := Explore(build, Options{Threads: 4, RoundFP: true, InputSeed: 1}, RaceDirected(4, 0), 8, nil)
	if err != nil {
		t.Fatalf("directed search: %v", err)
	}
	if res.Found {
		t.Errorf("directed search reports nondeterminism on the clean program after %d runs", res.Runs)
	}
	if res.Hits != 0 {
		t.Errorf("%d preemptions forced on a program with no race", res.Hits)
	}
}
