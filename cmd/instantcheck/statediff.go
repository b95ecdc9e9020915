package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"instantcheck"
	"instantcheck/internal/farm"
)

// statediff runs the §2.3 bug-localization tool on one workload: it checks
// determinism and, when two runs diverge, prints the report
// AssertDeterministic fails a test with — the two checkpoints the
// divergence sits between, and the state diff at the first divergence
// with every differing word mapped back to its allocation site and
// offset. The flags fill a farm.JobSpec, so a workload, bug or count the
// daemon would refuse is refused here too.
func statediff(args []string, w io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: instantcheck statediff <app> [-runs N] [-threads N] [-small] [-bug semantic|atomicity|order] [-round]")
	}
	spec := farm.JobSpec{App: args[0]}
	fs := flag.NewFlagSet("statediff", flag.ContinueOnError)
	fs.IntVar(&spec.Runs, "runs", 0, "test runs (0: 30)")
	fs.IntVar(&spec.Threads, "threads", 0, "worker threads (0: 8)")
	fs.BoolVar(&spec.Small, "small", false, "reduced input")
	fs.StringVar(&spec.Bug, "bug", "", "seed the workload's Figure 7 bug: semantic|atomicity|order")
	fs.BoolVar(&spec.RoundFP, "round", false, "enable FP rounding")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	camp, build, err := spec.Resolve()
	if err != nil {
		return err
	}
	var f failure
	rep := instantcheck.AssertDeterministic(&f, camp, build)
	switch {
	case rep == nil:
		return errors.New(f.report)
	case f.report != "":
		fmt.Fprint(w, f.report)
	default:
		fmt.Fprintf(w, "%s is deterministic across %d runs (%d checking points); nothing to diff\n",
			spec.App, camp.Runs, rep.Points())
	}
	return nil
}

// failure stands in for the test AssertDeterministic would fail: it keeps
// the report instead.
type failure struct{ report string }

func (f *failure) Helper() {}

func (f *failure) Fatalf(format string, args ...any) { f.report = fmt.Sprintf(format, args...) }
