package apps

import (
	"testing"

	"instantcheck/internal/core"
	"instantcheck/internal/statediff"
)

// TestStreamclusterBug reproduces the paper's §7.2.1 finding: the shipped
// streamcluster carries a non-benign order violation that InstantCheck
// detects at interior barriers but that is masked away by the end of the
// run — so checking only at program end would miss it.
func TestStreamclusterBug(t *testing.T) {
	app := ByName("streamcluster")
	rep, err := testCampaign().Check(app.Builder(testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.NDetPoints == 0 {
		t.Fatal("buggy streamcluster reported fully deterministic; the order violation did not manifest")
	}
	if !rep.DetAtEnd {
		t.Error("the bug should be masked at program end for this input (as the paper reports for simmedium)")
	}
	// Only speedy barriers (and the first pgain barrier after them, which
	// still sees the tainted scratch) may be nondeterministic.
	for _, s := range rep.Stats {
		if !s.Deterministic && s.Label != "sc.speedy" && s.Label != "sc.pgain" {
			t.Errorf("unexpected nondeterministic checkpoint %d (%s)", s.Ordinal, s.Label)
		}
	}
	if rep.FirstNDetRun == 0 || rep.FirstNDetRun > 5 {
		t.Errorf("FirstNDetRun = %d, want small (the paper detects in run 2-3)", rep.FirstNDetRun)
	}
}

// TestStreamclusterFixed checks the author's fix removes all
// nondeterminism.
func TestStreamclusterFixed(t *testing.T) {
	app := ByName("streamcluster")
	opts := testOptions()
	opts.FixBug = true
	rep, err := testCampaign().Check(app.Builder(opts))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic() {
		t.Errorf("fixed streamcluster still nondeterministic at %d points", rep.NDetPoints)
	}
}

// TestSeededBugsDetected reruns Table 2 at test scale: each Figure 7 bug,
// seeded only in thread 3, turns its formerly deterministic host
// nondeterministic, and InstantCheck detects it within a few runs.
func TestSeededBugsDetected(t *testing.T) {
	cases := []struct {
		app string
		bug BugKind
	}{
		{"waterNS", BugSemantic},
		{"waterSP", BugAtomicity},
		{"radix", BugOrder},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app, func(t *testing.T) {
			t.Parallel()
			app := ByName(tc.app)
			if app.HostsBug != tc.bug {
				t.Fatalf("%s hosts %v, not %v", tc.app, app.HostsBug, tc.bug)
			}
			camp := testCampaign()
			camp.RoundFP = app.UsesFP
			camp.Runs = 12 // bug manifestation may need a few more seeds

			clean, err := camp.Check(app.Builder(testOptions()))
			if err != nil {
				t.Fatal(err)
			}
			if !clean.Deterministic() {
				t.Fatalf("host %s is not deterministic without the bug (%d ndet points)", tc.app, clean.NDetPoints)
			}

			opts := testOptions()
			opts.Bug = tc.bug
			buggy, err := camp.Check(app.Builder(opts))
			if err != nil {
				t.Fatal(err)
			}
			if buggy.NDetPoints == 0 {
				t.Errorf("seeded %v in %s was not detected", tc.bug, tc.app)
			}
			if buggy.DetPoints == 0 {
				t.Errorf("seeded %v in %s made every point nondeterministic; expected localization between checkpoints", tc.bug, tc.app)
			}
		})
	}
}

// TestBugLocalization exercises the §2.3 debugging flow end to end on the
// radix order violation: detect nondeterminism, re-execute the two
// differing runs with snapshots, and map the differing words back to
// allocation sites.
func TestBugLocalization(t *testing.T) {
	app := ByName("radix")
	opts := testOptions()
	opts.Bug = BugOrder
	camp := testCampaign()
	camp.Runs = 12
	camp.SnapshotDifferingRuns = true
	rep, err := camp.Check(app.Builder(opts))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstNDetRun == 0 {
		t.Fatal("bug not detected")
	}
	d := rep.DiffSnapshots
	if d == nil {
		t.Fatal("no diff capture despite nondeterminism")
	}
	diffs := statediff.Diff(d.A, d.B, d.Round)
	if len(diffs) == 0 {
		t.Fatal("snapshots at the first differing checkpoint are identical")
	}
	// Every differing word must be attributed to a real allocation site of
	// the radix kernel.
	for _, diff := range diffs {
		if diff.Site == "?" {
			t.Errorf("unattributed differing word at %#x", diff.Addr)
		}
	}
	sum := statediff.Summarize(diffs)
	if len(sum) == 0 {
		t.Fatal("no per-site summary")
	}
	// The corrupted state lives in the key arrays / checksum, all static
	// radix sites.
	for _, s := range sum {
		if s.Words <= 0 {
			t.Errorf("empty summary group %q", s.Site)
		}
	}
}

// TestCholeskyCustomAllocator checks the paper's allocator observation:
// with the raw custom allocator, cholesky stays nondeterministic even
// after rounding and structure isolation; routing the allocator through
// malloc (the paper's assumption) plus the ignore set makes it
// deterministic.
func TestCholeskyCustomAllocator(t *testing.T) {
	app := ByName("cholesky")
	opts := testOptions()
	opts.RawCustomAlloc = true
	camp := testCampaign()
	camp.RoundFP = true
	camp.Ignore = app.IgnoreSet()
	rep, err := camp.Check(app.Builder(opts))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deterministic() {
		t.Error("raw custom allocator should keep cholesky nondeterministic (ignore set does not cover the pool)")
	}
}

// TestPBZip2Output checks §4.3: the compressed output stream, hashed at
// the write() boundary, is deterministic even though consumers race for
// jobs — and the state is deterministic once dangling result pointers are
// ignored.
func TestPBZip2Output(t *testing.T) {
	app := ByName("pbzip2")
	camp := testCampaign()
	camp.Ignore = app.IgnoreSet()
	rep, err := camp.Check(app.Builder(testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutputDistinct != 1 {
		t.Errorf("output stream hashes: %d distinct, want 1 (deterministic output)", rep.OutputDistinct)
	}
	if !rep.Deterministic() {
		t.Errorf("pbzip2 with dangling pointers ignored should be deterministic (%d ndet points)", rep.NDetPoints)
	}
}

// TestPBZip2DanglingPointers checks that WITHOUT the ignore set the
// dangling buffer pointers make pbzip2 nondeterministic — while the rest
// of the state stays clean (the diff localizes to the results table).
func TestPBZip2DanglingPointers(t *testing.T) {
	app := ByName("pbzip2")
	camp := testCampaign()
	camp.SnapshotDifferingRuns = true
	rep, err := camp.Check(app.Builder(testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deterministic() {
		t.Skip("schedules did not vary allocation order in this configuration")
	}
	d := rep.DiffSnapshots
	if d == nil {
		t.Fatal("no diff capture")
	}
	for _, diff := range statediff.Diff(d.A, d.B, d.Round) {
		if diff.Site != "static:pb.results" {
			t.Errorf("nondeterminism outside the results table: %s", diff.Format())
		}
		if diff.Offset%pbzip2ResultWords != 1 {
			t.Errorf("nondeterminism in a non-pointer word: %s", diff.Format())
		}
	}
}

// TestVolrendBenignRace checks the paper's volrend observation: the racy
// hand-coded barrier is benign — InstantCheck correctly reports volrend
// bit-by-bit deterministic.
func TestVolrendBenignRace(t *testing.T) {
	app := ByName("volrend")
	rep, err := testCampaign().Check(app.Builder(testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic() {
		t.Errorf("volrend should be deterministic despite the benign race (%d ndet points)", rep.NDetPoints)
	}
}

// TestSwaptionsThreadLocalRNG checks the paper's Monte-Carlo observation:
// thread-local generators keep swaptions deterministic.
func TestSwaptionsThreadLocalRNG(t *testing.T) {
	rep, err := testCampaign().Check(ByName("swaptions").Builder(testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic() {
		t.Errorf("swaptions should be bit-by-bit deterministic (%d ndet points)", rep.NDetPoints)
	}
}

// TestFirstNDetRunFast checks §7.2.2: for nondeterministic apps the first
// differing run comes fast (the paper sees run 2 or 3).
func TestFirstNDetRunFast(t *testing.T) {
	for _, name := range []string{"barnes", "canneal", "radiosity"} {
		app := ByName(name)
		rep, err := testCampaign().Check(app.Builder(testOptions()))
		if err != nil {
			t.Fatal(err)
		}
		if rep.FirstNDetRun == 0 {
			t.Errorf("%s: nondeterminism not detected at all", name)
		} else if rep.FirstNDetRun > 4 {
			t.Errorf("%s: FirstNDetRun = %d, want <= 4", name, rep.FirstNDetRun)
		}
	}
}

// TestCharacterizationReports sanity-checks the per-campaign reports of a
// Characterization.
func TestCharacterizationReports(t *testing.T) {
	app := ByName("ocean")
	ch, err := testCampaign().Characterize(app.Builder(testOptions()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != core.ClassFPDeterministic {
		t.Fatalf("ocean class = %v", ch.Class)
	}
	if ch.BitByBit.Deterministic() {
		t.Error("ocean bit-by-bit campaign should see the racy-order residual")
	}
	if ch.BitByBit.FirstNDetRun == 0 {
		t.Error("bit-by-bit campaign should record a first nondeterministic run")
	}
	if !ch.AfterRounding.Deterministic() {
		t.Error("rounding should make ocean deterministic")
	}
	if best := ch.Best(); best != ch.AfterRounding {
		t.Error("Best() should pick the rounding campaign for an FP-class app")
	}
}
