package farm

// Explore jobs: the farm's second job kind. A check job replays a fixed
// set of schedules and compares full hash vectors; an explore job *hunts*
// — a search strategy (internal/explore) generates schedules one at a
// time, learns from each run's checkpoint hashes, and the campaign stops
// at the first State-Hash divergence. The store records every executed
// run exactly like a check job's (the hash log is the same interchange
// unit), plus one "explored" record carrying the search outcome, so a
// restarted daemon reassembles the report without re-searching.

import (
	"context"
	"fmt"
	"time"

	"instantcheck/internal/explore"
	"instantcheck/internal/sim"
)

// runExploreJob executes one explore campaign. Every executed run is
// committed to the store through AppendRun (idempotent: a re-run after a
// crash re-generates identical schedules from the same seeds), and the
// search outcome is made durable before the caller writes the jobend
// marker. The search itself is sequential — strategies learn run to run —
// so it uses no replay pool and the daemon's RunWorkers does not apply.
func runExploreJob(ctx context.Context, id JobID, spec JobSpec, store *Store, m *Metrics,
	progress func(done, total int)) (*Report, error) {

	camp, build, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	opts := explore.Options{
		Threads:        camp.Threads,
		Scheme:         camp.Scheme,
		RoundFP:        camp.RoundFP,
		InputSeed:      camp.InputSeed,
		SwitchInterval: camp.SwitchInterval,
		ScheduleSeed:   camp.BaseScheduleSeed,
		Hasher:         camp.Hasher,
		Ignore:         camp.Ignore,
	}
	strat, err := explore.NewStrategy(spec.Strategy, opts, spec.PCTDepth)
	if err != nil {
		return nil, err
	}
	budget := camp.Runs
	label := strat.Name()

	runStart := time.Now()
	out, err := explore.Explore(build, opts, strat, budget,
		func(run int, res *sim.Result) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			m.observeRun(camp.Scheme, res, time.Since(runStart))
			m.observeExploreRun(label)
			if store != nil {
				if err := store.AppendRun(id, run, res); err != nil {
					return err
				}
			}
			if progress != nil {
				progress(run+1, budget)
			}
			// The next run's clock starts here, so the append and the
			// progress report above are not charged to it.
			runStart = time.Now()
			return nil
		})
	if err != nil {
		return nil, err
	}

	m.observeExplore(out)
	if store != nil {
		if err := store.SetExploreOutcome(id, out); err != nil {
			return nil, err
		}
	}
	return exploreReport(spec, out), nil
}

// exploreReport projects a search outcome into the wire report. The
// hash-distribution fields stay zero — an explore campaign stops at the
// first divergence, so there is no full cross-run distribution to report;
// the Explore block is the payload.
func exploreReport(spec JobSpec, out *ExploreOutcome) *Report {
	return &Report{
		Program:       spec.App,
		Runs:          out.Runs,
		Deterministic: !out.Found,
		DetAtEnd:      !out.Found,
		FirstNDetRun:  out.DivergedRun,
		Explore:       out,
	}
}

// exploreReportFromLog rebuilds a finished explore job's report from the
// store — the resume path. The "explored" record is authoritative; the
// run records back the hash-log endpoint but cannot say why the search
// stopped.
func exploreReportFromLog(jl *JobLog) (*Report, error) {
	if jl.Explore == nil {
		return nil, fmt.Errorf("farm: job %s: done explore job has no explored record", jl.ID)
	}
	return exploreReport(jl.Spec, jl.Explore), nil
}
