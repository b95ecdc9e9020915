package instantcheck

import (
	"testing"
)

// TestRaceFilterVolrend runs the §6.1 pipeline end to end on the real
// volrend kernel: its hand-coded sense-reversing barrier contains a true
// data race (waiters spin on the sense word without the lock), yet every
// schedule converges — the paper's example of a benign race that
// InstantCheck's state comparison filters out.
func TestRaceFilterVolrend(t *testing.T) {
	app := WorkloadByName("volrend")
	build := app.Builder(WorkloadOptions{Threads: 4, Small: true})
	cl, err := ClassifyRaces(build, RaceConfig{Threads: 4, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Verdicts) == 0 {
		t.Fatal("volrend's hand-coded barrier race was not detected")
	}
	if !cl.Deterministic {
		t.Fatal("volrend should be externally deterministic")
	}
	sawSense := false
	for _, v := range cl.Verdicts {
		if !v.Benign {
			t.Errorf("volrend race misclassified harmful: %+v", v.Race)
		}
		if v.Race.Site == "static:vr.hc.sense" {
			sawSense = true
		}
	}
	if !sawSense {
		t.Error("the racy sense word was not among the detected races")
	}
}

// TestRaceFilterCanneal checks the other direction on a real kernel:
// canneal's racy cost reads steer persistent placement state, so its races
// are harmful and the program nondeterministic.
func TestRaceFilterCanneal(t *testing.T) {
	app := WorkloadByName("canneal")
	build := app.Builder(WorkloadOptions{Threads: 4, Small: true})
	cl, err := ClassifyRaces(build, RaceConfig{Threads: 4, Runs: 8, InputSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Deterministic {
		t.Fatal("canneal classified deterministic")
	}
	harmful := 0
	for _, v := range cl.Verdicts {
		if !v.Benign {
			harmful++
		}
	}
	if harmful == 0 {
		t.Error("no harmful race found in canneal")
	}
}

// TestRaceDetectorCleanApps checks the happens-before detector reports no
// races for properly synchronized kernels (fft's barrier phases, ocean's
// locked reduction).
func TestRaceDetectorCleanApps(t *testing.T) {
	for _, name := range []string{"fft", "ocean"} {
		app := WorkloadByName(name)
		build := app.Builder(WorkloadOptions{Threads: 4, Small: true})
		races, err := DetectRaces(build, RaceConfig{Threads: 4, Runs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(races) != 0 {
			t.Errorf("%s: false positives: %+v", name, races[:min(3, len(races))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSystematicFigure1 runs the §6.2 exploration on the paper's Figure 1
// program shape: pruning must shrink the tree without changing the
// verdict.
func TestSystematicFigure1(t *testing.T) {
	app := WorkloadByName("radix") // real kernel, deterministic, has barriers
	build := app.Builder(WorkloadOptions{Threads: 2, Small: true})
	opts := SystematicOptions{Threads: 2, MaxRuns: 40, MaxDecisions: 10}
	full, err := Systematic(build, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prune = true
	pruned, err := Systematic(build, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Deterministic() {
		t.Error("pruned exploration verdict changed")
	}
	if pruned.Runs > full.Runs {
		t.Errorf("pruning increased work: %d > %d", pruned.Runs, full.Runs)
	}
}

// TestReplayAssistOnWorkload runs the §6.3 flow on the waterSP kernel with
// the atomicity bug seeded (a genuinely nondeterministic execution): the
// recorded hash log validates its own seed and rejects diverging ones
// early.
func TestReplayAssistOnWorkload(t *testing.T) {
	app := WorkloadByName("waterSP")
	build := app.Builder(WorkloadOptions{Threads: 4, Small: true, Bug: BugAtomicity})
	log, err := RecordReplayLog(build, ReplayConfig{Threads: 4, RoundFP: true}, 77)
	if err != nil {
		t.Fatal(err)
	}
	at, err := log.TrySeed(build, 77)
	if err != nil {
		t.Fatal(err)
	}
	if !at.Match {
		t.Fatal("original seed did not replay its own log")
	}
	res, err := log.Search(build, 2000, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Whether a match exists in 40 candidates is schedule luck; what must
	// hold is early cutoff on the diverging ones.
	for _, a := range res.Attempts {
		if !a.Match && a.Checkpoints >= len(log.Hashes) {
			t.Errorf("diverging candidate %d ran the full log", a.Seed)
		}
	}
}
