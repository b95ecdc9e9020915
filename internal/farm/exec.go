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
// passed to deliver, and every deliver call has returned, or with the
// first error. deliver may be called concurrently, and more than once for
// a run: a dispatcher that re-issues work (straggler re-dispatch racing
// its zombie) passes every copy it receives, and deliver persists each,
// which compares it with the committed record, and folds only the first.
// Dispatch must respect ctx cancellation.
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
//   - runs already committed in prior (a resumed campaign) are not
//     re-executed — each is read back from the store, folded in and
//     dropped;
//   - the remaining runs go to the dispatcher — core's replay pool,
//     workers wide, by default, a fleet coordinator when one is
//     configured;
//   - every run is folded into the report (core.Fold) as it is committed,
//     then dropped, so the job holds per-checkpoint tallies and never
//     every run's hash vector. The cross-run comparison is commutative, so
//     the report is byte-identical to Campaign.Check's.
//
// onRun is called for every delivery of an executed run, concurrently
// across runs; the store's AppendRun is the intended sink, and it compares
// a second delivery of a run with the committed record. progress is
// called after every newly folded run. m (nil allowed) receives the
// runCounters of every run executed in this process. disp nil selects the
// local pool of workers goroutines. The core report's Runs is nil.
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
	if onRun == nil {
		onRun = func(int, *sim.Result) error { return nil }
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
	fold, err := camp.NewFold(runner.Name())
	if err != nil {
		return nil, nil, err
	}
	if err := fold.Add(0, first); err != nil {
		return nil, nil, err
	}

	// Resurrect committed runs from the store. Their hashes are trusted;
	// run 0 is checked against the re-recorded run instead, which catches
	// a log written by a different binary or input.
	committed := make([]bool, total)
	done := 0
	if prior != nil {
		for _, run := range prior.CompletedRuns() {
			if run < 0 || run >= total {
				continue
			}
			rec, err := prior.Run(run)
			if err != nil {
				return nil, nil, err
			}
			if run == 0 {
				err = rec.Diff(NewRunRecord(0, first))
				if err != nil {
					err = fmt.Errorf("farm: stored hash log disagrees with re-recorded run 1: %w", err)
				}
			} else {
				err = fold.Add(run, rec.Result())
			}
			if err != nil {
				return nil, nil, err
			}
			committed[run] = true
			done++
			if m != nil {
				m.runsRestored.Inc()
			}
		}
	}
	if !committed[0] {
		if err := onRun(0, first); err != nil {
			return nil, nil, err
		}
		committed[0] = true
		done++
	}
	if progress != nil {
		progress(done, total)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	var need []int
	for run := 1; run < total; run++ {
		if !committed[run] {
			need = append(need, run)
		}
	}
	// deliver persists and folds one dispatched run. A later delivery of a
	// run (a re-dispatched shard racing its zombie lease) is persisted
	// too, which compares it with the committed record, and is not folded
	// again.
	var mu sync.Mutex
	deliver := func(run int, res *sim.Result) error {
		if err := onRun(run, res); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if committed[run] {
			return nil
		}
		if err := fold.Add(run, res); err != nil {
			return err
		}
		committed[run] = true
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

	mu.Lock()
	coreRep, err := fold.Report()
	mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return projectReport(coreRep), coreRep, nil
}

// reportFromLog assembles a finished job's report purely from its stored
// hash log — the restart path for jobs that completed before the daemon
// went down. Every run must be committed; each is read back, folded in
// and dropped.
func reportFromLog(jl *JobLog) (*Report, error) {
	camp, _, err := jl.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	completed := jl.CompletedRuns()
	if len(completed) != camp.Runs {
		return nil, fmt.Errorf("farm: job %s: %d of %d runs in log", jl.ID, len(completed), camp.Runs)
	}
	fold, err := camp.NewFold(jl.Spec.App)
	if err != nil {
		return nil, err
	}
	for _, run := range completed { // in increasing order: run 0 first
		if run < 0 || run >= camp.Runs {
			return nil, fmt.Errorf("farm: job %s: run %d out of range", jl.ID, run)
		}
		rec, err := jl.Run(run)
		if err != nil {
			return nil, err
		}
		if err := fold.Add(run, rec.Result()); err != nil {
			return nil, err
		}
	}
	coreRep, err := fold.Report()
	if err != nil {
		return nil, err
	}
	return projectReport(coreRep), nil
}
