package instantcheck

import (
	"fmt"
	"strings"
)

// GuardReport is the failure report AssertDeterministic produces: the
// campaign report plus, when available, the localized state diff of the
// first divergence — everything §2.3's methodology gives the programmer.
type GuardReport struct {
	// Report is the campaign outcome.
	Report *Report
	// Diffs lists the differing words at the first divergence (nil when
	// snapshot capture failed or was unnecessary).
	Diffs []Difference
}

// Format renders the failure report.
func (g *GuardReport) Format() string {
	r := g.Report
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s is externally NONDETERMINISTIC: %d of %d checking points differ across %d runs (first detected in run %d)\n",
		r.Program, r.NDetPoints, r.Points(), len(r.Runs), r.FirstNDetRun)
	if ord := r.FirstNDetPoint(); ord >= 0 {
		label := r.Stats[ord].Label
		prev := "start of run"
		if ord > 0 {
			prev = fmt.Sprintf("checkpoint %d (%s)", ord-1, r.Stats[ord-1].Label)
		}
		fmt.Fprintf(&sb, "nondeterminism localized between %s and checkpoint %d (%s)\n", prev, ord, label)
	}
	if d := r.DiffSnapshots; d != nil && g.Diffs != nil {
		fmt.Fprintf(&sb, "state diff of runs %d and %d at the first divergence:\n", d.RunA, d.RunB)
		sb.WriteString(RenderDiff(g.Diffs, 12))
	}
	if r.OutputDistinct > 1 {
		fmt.Fprintf(&sb, "output streams also differ: %d distinct output hashes\n", r.OutputDistinct)
	}
	return sb.String()
}

// failer is the subset of testing.TB the guard needs; using the interface
// keeps the library free of a testing import.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// AssertDeterministic is the CI-adoption entry point: embed it in a test
// to guard a parallel algorithm against nondeterminism regressions. It
// runs the campaign (snapshot capture enabled) and fails the test with a
// localized state-diff report when any two runs disagree.
//
//	func TestMySimulationIsDeterministic(t *testing.T) {
//	    instantcheck.AssertDeterministic(t,
//	        instantcheck.Campaign{Runs: 20, Threads: 4, RoundFP: true},
//	        func() instantcheck.Program { return NewMySimulation() })
//	}
func AssertDeterministic(tb failer, camp Campaign, build Builder) *Report {
	tb.Helper()
	camp.SnapshotDifferingRuns = true
	rep, err := camp.Check(build)
	if err != nil {
		tb.Fatalf("instantcheck: campaign failed: %v", err)
		return nil
	}
	if rep.Deterministic() && rep.OutputDistinct <= 1 {
		return rep
	}
	g := &GuardReport{Report: rep}
	if d := rep.DiffSnapshots; d != nil {
		g.Diffs = DiffStates(d.A, d.B, d.Round)
	}
	tb.Fatalf("%s", g.Format())
	return rep
}
