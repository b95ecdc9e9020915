package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// Runner executes a campaign at run granularity. Every check campaign runs
// through one: Campaign.Check, the farm and the fleet's worker nodes. The
// protocol is:
//
//  1. Record executes run 1 — the recording run — which populates the
//     campaign's allocation-address log and env-call streams (§5).
//  2. Replay executes any of runs 2..Runs, in any order and from any
//     number of goroutines: each replay run works on a private clone of
//     the recorded logs, so a replay run depends only on the recording
//     and its run index. ReplayAll is the pool that runs a list of them.
//  3. A Fold merges the per-run results into a Report as they arrive
//     (Campaign.Assemble folds a gathered slice). The comparison is
//     commutative over runs, so the report does not depend on the order
//     in which the runs finished.
type Runner struct {
	c        Campaign
	build    Builder
	addrLog  *replay.AddrLog
	env      *replay.Env
	name     string
	recorded bool
	// snapshotAt selects the checkpoints at which every run captures its
	// full state; only the state-diff capture sets it.
	snapshotAt map[int]bool
}

// NewRunner validates the campaign and prepares its replay state. The
// returned runner has not executed anything yet; call Record first.
func (c Campaign) NewRunner(build Builder) (*Runner, error) {
	c, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	if !c.Scheme.Hashing() {
		return nil, fmt.Errorf("core: campaign scheme %v computes no hashes", c.Scheme)
	}
	return &Runner{
		c:       c,
		build:   build,
		addrLog: replay.NewAddrLog(),
		env:     replay.NewEnv(c.InputSeed),
	}, nil
}

// Campaign returns the runner's configuration with defaults applied.
func (r *Runner) Campaign() Campaign { return r.c }

// WithDefaults returns the campaign with the paper's defaults filled in
// and the explicit fields validated — the same normalization Check
// performs before running.
func (c Campaign) WithDefaults() (Campaign, error) { return c.withDefaults() }

// Name returns the program name; it is known once Record has run.
func (r *Runner) Name() string { return r.name }

// Record executes the recording run (run index 0). It must complete before
// any Replay call, and may run only once.
func (r *Runner) Record() (*sim.Result, error) {
	if r.recorded {
		return nil, fmt.Errorf("core: Record called twice")
	}
	res, name, err := r.run(0, r.addrLog, r.env)
	if err != nil {
		return nil, fmt.Errorf("core: run 1: %w", err)
	}
	r.name = name
	r.recorded = true
	return res, nil
}

// Replay executes the run with 0-based index run (1 <= run < Runs) against
// private clones of the recorded logs. It is safe to call concurrently
// from multiple goroutines once Record has returned.
func (r *Runner) Replay(run int) (*sim.Result, error) {
	if !r.recorded {
		return nil, fmt.Errorf("core: Replay before Record")
	}
	if run < 1 || run >= r.c.Runs {
		return nil, fmt.Errorf("core: replay run index %d out of range [1, %d)", run, r.c.Runs)
	}
	res, _, err := r.run(run, r.addrLog.Clone(), r.env.Fork(forkSeed(r.c.InputSeed, run)))
	if err != nil {
		return nil, fmt.Errorf("core: run %d: %w", run+1, err)
	}
	return res, nil
}

// ReplayAll replays runs on a pool of workers goroutines (fewer than 1
// means one) and passes each result, with the time its run took, to
// deliver. deliver may be called concurrently, once per run. The pool
// starts no new run after the first error or once ctx is done, waits for
// the runs in flight, and returns that error.
func (r *Runner) ReplayAll(ctx context.Context, runs []int, workers int,
	deliver func(run int, res *sim.Result, elapsed time.Duration) error) error {

	workers = max(min(workers, len(runs)), 1)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		firstErr error
	)
	// take hands out the next run, or false once the list is drained or
	// the pool has stopped.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil || next == len(runs) {
			return 0, false
		}
		next++
		return runs[next-1], true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run, ok := take(); ok; run, ok = take() {
				start := time.Now()
				res, err := r.Replay(run)
				if err == nil {
					err = deliver(run, res, time.Since(start))
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// run executes run index run of the campaign on the given logs. It is the
// one place a check campaign builds a machine.
func (r *Runner) run(run int, addrLog *replay.AddrLog, env *replay.Env) (*sim.Result, string, error) {
	prog := r.build()
	c := r.c
	m := sim.NewMachine(sim.Config{
		Threads:        c.Threads,
		ScheduleSeed:   c.BaseScheduleSeed + int64(run),
		SwitchInterval: c.SwitchInterval,
		Scheme:         c.Scheme,
		Hasher:         c.Hasher,
		Rounding:       c.Rounding,
		RoundFP:        c.RoundFP,
		AddrLog:        addrLog,
		Env:            env,
		Ignore:         c.Ignore,
		SnapshotAt:     r.snapshotAt,
	})
	res, err := m.Run(prog)
	return res, prog.Name(), err
}

// ReplayState is the recorded substrate every replay run of a campaign
// depends on: the program name plus the allocation-address log and env-call
// streams run 1 produced (§5). It is what a distributed campaign ships to
// worker nodes — a worker holding the state replays any run of the campaign
// without executing the recording run itself.
type ReplayState struct {
	// Program is the checked program's name (known after recording).
	Program string `json:"program"`
	// Addr is the recorded allocation-address log.
	Addr *replay.AddrLog `json:"addr"`
	// Env holds the recorded env-call streams.
	Env *replay.Env `json:"env"`
}

// ReplayState exposes the recorded logs after Record has run. The returned
// state shares the runner's live structures; callers that ship it across a
// process boundary serialize it (its JSON form, with the logs' entries
// sorted, is the fleet's replay bundle), which makes the sharing moot, and
// in-process callers must treat it as read-only — exactly the discipline
// Replay itself follows (clone-on-run).
func (r *Runner) ReplayState() (ReplayState, error) {
	if !r.recorded {
		return ReplayState{}, fmt.Errorf("core: ReplayState before Record")
	}
	return ReplayState{Program: r.name, Addr: r.addrLog, Env: r.env}, nil
}

// NewReplayRunner builds a runner around an already-recorded replay state:
// the worker-node constructor. The returned runner accepts Replay calls
// immediately (Record is both unnecessary and forbidden — the state already
// embodies run 1), and because every replay run derives only from the state
// and the campaign seeds, a run replayed here is bit-identical to the same
// run replayed wherever the recording happened.
func (c Campaign) NewReplayRunner(build Builder, st ReplayState) (*Runner, error) {
	c, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	if !c.Scheme.Hashing() {
		return nil, fmt.Errorf("core: campaign scheme %v computes no hashes", c.Scheme)
	}
	if st.Addr == nil || st.Env == nil {
		return nil, fmt.Errorf("core: replay state missing recorded logs")
	}
	return &Runner{
		c:        c,
		build:    build,
		addrLog:  st.Addr,
		env:      st.Env,
		name:     st.Program,
		recorded: true,
	}, nil
}

// forkSeed derives the seed for a replay run's private env fork. The fork
// only draws from this seed if the run grows the recorded streams, and the
// derivation depends on nothing but the campaign input and the run index,
// keeping replay runs independent of each other.
func forkSeed(inputSeed int64, run int) int64 {
	return inputSeed*0x9E3779B9 + int64(run)*0x85EBCA6B + 1
}

// Assemble merges per-run results (indexed in run order, all non-nil) into
// a campaign report — the merge stage of a parallel campaign. Program
// names the checked program. Assemble folds the runs in through a Fold,
// as Check does, and keeps them in the report's Runs; callers that stream
// runs in (the farm, resuming some from a persistent hash log) use a Fold
// directly and keep none.
func (c Campaign) Assemble(program string, runs []*sim.Result) (*Report, error) {
	f, err := c.NewFold(program)
	if err != nil {
		return nil, err
	}
	if len(runs) != f.rep.Campaign.Runs {
		return nil, fmt.Errorf("core: assemble got %d results for a %d-run campaign", len(runs), f.rep.Campaign.Runs)
	}
	for i, res := range runs {
		if res == nil {
			return nil, fmt.Errorf("core: assemble: run %d result missing", i+1)
		}
		if err := f.Add(i, res); err != nil {
			return nil, err
		}
	}
	rep, err := f.Report()
	if err != nil {
		return nil, err
	}
	rep.Runs = runs
	return rep, nil
}
