package farm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"instantcheck/internal/core"
	"instantcheck/internal/sim"
)

// Dispatcher executes the outstanding replay runs of one campaign. It is
// the seam between the farm's job lifecycle (record, resume, merge — all
// handled by runJob) and wherever the replay runs actually execute:
//
//   - without one, runJob runs them on core's in-process replay pool
//     (core.Runner.ReplayAll);
//   - the fleet coordinator (internal/fleet) implements Dispatcher by
//     leasing run-shards to remote worker processes and feeding their
//     streamed results back through deliver.
//
// The contract: Dispatch returns only after every run in need has been
// passed to deliver exactly once, or with the first error. deliver may be
// called concurrently for distinct runs but never twice for the same run;
// runJob additionally dedups by run index, so a dispatcher that re-issues
// work (straggler re-dispatch racing its zombie) is still safe. Dispatch
// must respect ctx cancellation.
type Dispatcher interface {
	Dispatch(ctx context.Context, id JobID, spec JobSpec, runner *core.Runner, need []int,
		deliver func(run int, res *sim.Result) error) error
}

// PlanShards splits outstanding run indices into shards of at most size
// runs — the lease unit of a distributed campaign. size <= 0 yields one
// shard with everything. The shards partition need in order; a coordinator
// re-planning after lease expiry passes only the still-missing runs.
func PlanShards(need []int, size int) [][]int {
	if len(need) == 0 {
		return nil
	}
	if size <= 0 {
		size = len(need)
	}
	out := make([][]int, 0, (len(need)+size-1)/size)
	for len(need) > 0 {
		n := size
		if n > len(need) {
			n = len(need)
		}
		out = append(out, append([]int(nil), need[:n]...))
		need = need[n:]
	}
	return out
}

// runJob executes one campaign, the heart of the farm:
//
//   - the recording run executes first and alone (it records the replay
//     logs every other run depends on, §5);
//   - the remaining runs go to the dispatcher — core's replay pool,
//     workers wide, by default, a fleet coordinator when one is
//     configured;
//   - runs already committed in prior (a resumed campaign) are not
//     re-executed — their hash vectors come straight from the store;
//   - the merge stage folds all vectors into a report. The hash combine
//     and the cross-run comparison are commutative, so the report is
//     byte-identical to Campaign.Check's.
//
// onRun is called once per newly executed run, from at most one goroutine
// at a time per run but concurrently across runs; the store's AppendRun is
// the intended sink. progress is called after every finished run. m (nil
// allowed) receives the runCounters of every run executed in this process.
// disp nil selects the local pool of workers goroutines.
func runJob(ctx context.Context, id JobID, spec JobSpec, prior *JobLog, m *Metrics, disp Dispatcher, workers int,
	onRun func(run int, res *sim.Result) error,
	progress func(done, total int)) (*Report, *core.Report, error) {

	camp, build, err := spec.Resolve()
	if err != nil {
		return nil, nil, err
	}
	runner, err := camp.NewRunner(build)
	if err != nil {
		return nil, nil, err
	}
	total := camp.Runs
	results := make([]*sim.Result, total)
	done := 0
	report := func(run int, res *sim.Result) error {
		if onRun != nil {
			if err := onRun(run, res); err != nil {
				return err
			}
		}
		return nil
	}

	// Resurrect committed runs from the store. Their hashes are trusted;
	// run 0 is additionally cross-checked below against the re-recorded
	// run, which catches a log written by a different binary or input.
	if prior != nil {
		for _, run := range prior.CompletedRuns() {
			if run < total {
				results[run] = prior.Run(run).Result()
				done++
				if m != nil {
					m.runsRestored.Inc()
				}
			}
		}
	}

	// Recording run. Even when run 0 was committed before a restart it is
	// re-executed: the in-memory replay logs exist only as a side effect
	// of recording, and re-recording is deterministic.
	recordStart := time.Now()
	first, err := runner.Record()
	if err != nil {
		return nil, nil, err
	}
	m.observeRun(camp.Scheme, first, time.Since(recordStart))
	if results[0] != nil {
		if err := prior.Run(0).Diff(NewRunRecord(0, first)); err != nil {
			return nil, nil, fmt.Errorf("farm: stored hash log disagrees with re-recorded run 1: %w", err)
		}
	} else {
		if err := report(0, first); err != nil {
			return nil, nil, err
		}
		done++
	}
	results[0] = first
	var mu sync.Mutex
	if progress != nil {
		progress(done, total)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	var need []int
	for run := 1; run < total; run++ {
		if results[run] == nil {
			need = append(need, run)
		}
	}
	// deliver persists and folds one dispatched run. Duplicate deliveries
	// of a run (a re-dispatched shard racing its zombie lease) are dropped
	// after the store's own idempotence check accepted them.
	deliver := func(run int, res *sim.Result) error {
		mu.Lock()
		dup := results[run] != nil
		mu.Unlock()
		if dup {
			return nil
		}
		if err := report(run, res); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if results[run] != nil {
			return nil
		}
		results[run] = res
		done++
		if progress != nil {
			progress(done, total)
		}
		return nil
	}
	switch {
	case disp == nil:
		err = runner.ReplayAll(ctx, need, workers, func(run int, res *sim.Result, d time.Duration) error {
			m.observeRun(camp.Scheme, res, d)
			return deliver(run, res)
		})
	case len(need) > 0:
		err = disp.Dispatch(ctx, id, spec, runner, need, deliver)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	coreRep, err := camp.Assemble(runner.Name(), results)
	if err != nil {
		return nil, nil, err
	}
	return projectReport(coreRep), coreRep, nil
}

// reportFromLog assembles a finished job's report purely from its stored
// hash log — the restart path for jobs that completed before the daemon
// went down. Every run must be committed.
func reportFromLog(jl *JobLog) (*Report, error) {
	camp, _, err := jl.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	completed := jl.CompletedRuns()
	if len(completed) != camp.Runs {
		return nil, fmt.Errorf("farm: job %s: %d of %d runs in log", jl.ID, len(completed), camp.Runs)
	}
	results := make([]*sim.Result, camp.Runs)
	for _, run := range completed {
		if run >= camp.Runs {
			return nil, fmt.Errorf("farm: job %s: run %d out of range", jl.ID, run)
		}
		results[run] = jl.Run(run).Result()
	}
	coreRep, err := camp.Assemble(jl.Spec.App, results)
	if err != nil {
		return nil, err
	}
	return projectReport(coreRep), nil
}
