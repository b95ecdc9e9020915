package explore

import (
	"errors"
	"fmt"

	"instantcheck/internal/ihash"
	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// Options configures an exploration.
type Options struct {
	// Threads is the program's worker count.
	Threads int
	// PreemptEvery inserts a scheduling decision every k simulated
	// operations in addition to the decisions at blocking points; 0
	// explores only blocking-point nondeterminism (non-preemptive
	// schedules).
	PreemptEvery int
	// MaxRuns bounds the number of schedules executed (0 selects
	// DefaultMaxRuns).
	MaxRuns int
	// MaxDecisions bounds the branching depth considered per run: free
	// decisions beyond it are not branched on (0 = unlimited). This is
	// the "bounded" in bounded systematic testing.
	MaxDecisions int
	// Prune enables state-hash pruning at quiescent checkpoints.
	Prune bool
	// Scheme selects the hashing scheme (default HWInc).
	Scheme sim.Scheme
	// RoundFP enables FP rounding for the state hashes.
	RoundFP bool
	// InputSeed fixes the program's replayed input.
	InputSeed int64
	// SwitchInterval is the mean operation count between random forced
	// preemptions for strategy runs (<= 0 selects the scheduler default).
	// Systematic ignores it: its decider controls switching through
	// PreemptEvery.
	SwitchInterval int
	// ScheduleSeed is the base schedule seed: run i of a random-schedule
	// search uses ScheduleSeed + i + 1, so repeated campaigns with
	// different bases explore different schedule sequences. The zero
	// value reproduces the historical sequence (seeds 1, 2, 3, ...).
	ScheduleSeed int64
	// Hasher overrides the location hash (nil selects the default).
	Hasher ihash.Hasher
	// Ignore applies an ignore set to every run's hashes (§2.2).
	Ignore *sim.IgnoreSet
}

// Result summarizes an exploration.
type Result struct {
	// Runs is the number of schedules executed (including aborted ones).
	Runs int
	// CompletedRuns is the number of schedules that ran to the end.
	CompletedRuns int
	// PrunedRuns is the number of schedules aborted by state-hash pruning.
	PrunedRuns int
	// FinalStates maps each distinct final State Hash to the number of
	// completed runs that produced it. One entry means the program is
	// externally deterministic across the explored schedules.
	FinalStates map[ihash.Digest]int
	// StatesSeen is the number of distinct (checkpoint, hash) pairs
	// encountered.
	StatesSeen int
	// Exhausted is true when the whole bounded schedule tree was covered
	// within MaxRuns.
	Exhausted bool
}

// Deterministic reports whether every completed schedule ended in the same
// state.
func (r *Result) Deterministic() bool { return len(r.FinalStates) <= 1 }

// errPruned marks a run cancelled by state-hash pruning.
var errPruned = errors.New("explore: state already visited")

// decision records one branching point encountered during a run.
type decision struct {
	options int
	chosen  int
}

// scriptedDecider replays a choice prefix, then follows a deterministic
// round-robin default, recording every decision point. The default must
// rotate rather than always taking option 0: a fixed choice can starve a
// program that spins on a flag (hand-coded synchronization) by re-picking
// the spinner forever, while rotation guarantees progress. A prefix is
// always in range: Systematic builds it from choices a parent run recorded
// at the same decision points, and every run replays the same input and
// allocation logs, so the run reaches those points with the same options.
type scriptedDecider struct {
	prefix       []int
	preemptEvery int
	trace        []decision
}

// SwitchBudget implements sched.Decider.
func (d *scriptedDecider) SwitchBudget() int {
	if d.preemptEvery <= 0 {
		return 1 << 30 // switch only at blocking points
	}
	return d.preemptEvery
}

// Pick implements sched.Decider: scripted prefix first, then round-robin.
func (d *scriptedDecider) Pick(_ int, runnable []int) int {
	i, n := len(d.trace), len(runnable)
	choice := i % n
	if i < len(d.prefix) {
		choice = d.prefix[i]
	}
	d.trace = append(d.trace, decision{options: n, chosen: choice})
	return runnable[choice]
}

// stateKey identifies a quiescent program state.
type stateKey struct {
	ordinal int
	sh      ihash.Digest
}

// DefaultMaxRuns is Systematic's run bound when Options.MaxRuns is 0, and
// the largest run count the checkfarm accepts for a job.
const DefaultMaxRuns = 100000

// Systematic enumerates the program's bounded schedule tree and returns
// coverage statistics. With Prune set, subtrees rooted at already-visited
// quiescent states are cut.
func Systematic(build func() sim.Program, o Options) (*Result, error) {
	if o.Threads <= 0 {
		return nil, fmt.Errorf("explore: Threads must be positive")
	}
	maxRuns := o.MaxRuns
	if maxRuns == 0 {
		maxRuns = DefaultMaxRuns
	}
	scheme := o.Scheme
	if scheme == sim.Native {
		scheme = sim.HWInc
	}

	res := &Result{FinalStates: make(map[ihash.Digest]int)}
	seen := make(map[stateKey]bool)
	env := replay.NewEnv(o.InputSeed)
	addrLog := replay.NewAddrLog()

	// DFS over choice prefixes, from the free root.
	stack := [][]int{nil}
	for len(stack) > 0 && res.Runs < maxRuns {
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		d := &scriptedDecider{prefix: prefix, preemptEvery: o.PreemptEvery}
		pruned := false
		// The hook is the single place visited states are marked: it sees
		// every non-final checkpoint of every run, whether the run later
		// completes or is pruned, so the completed-run path below must not
		// (and does not) re-mark anything — the two bookkeeping paths
		// cannot drift apart.
		hook := func(cp sim.Checkpoint) error {
			if cp.Label == "end" {
				return nil
			}
			// Checkpoints reached before the scripted prefix is consumed
			// lie on a path shared with the parent schedule; their states
			// are necessarily already marked and must not prune this run
			// before it diverges.
			if len(d.trace) < len(d.prefix) {
				return nil
			}
			key := stateKey{cp.Ordinal, cp.SH}
			if o.Prune && seen[key] {
				pruned = true
				return errPruned
			}
			seen[key] = true
			return nil
		}
		m := sim.NewMachine(sim.Config{
			Threads:        o.Threads,
			Scheme:         scheme,
			Hasher:         o.Hasher,
			RoundFP:        o.RoundFP,
			Ignore:         o.Ignore,
			Decider:        d,
			CheckpointHook: hook,
			Env:            env,
			AddrLog:        addrLog,
		})
		r, err := m.Run(build())
		res.Runs++
		switch {
		case err == nil:
			res.CompletedRuns++
			res.FinalStates[r.FinalSH()]++
		case pruned && errors.Is(err, errPruned):
			res.PrunedRuns++
		default:
			return nil, fmt.Errorf("explore: run %d: %w", res.Runs, err)
		}

		// Branch on the free decisions this run took (beyond the prefix),
		// in reverse order so the DFS explores left-to-right.
		limit := len(d.trace)
		if o.MaxDecisions > 0 && o.MaxDecisions < limit {
			limit = o.MaxDecisions
		}
		for i := limit - 1; i >= len(prefix); i-- {
			dec := d.trace[i]
			for c := dec.options - 1; c >= 1; c-- {
				branch := make([]int, i+1)
				for j := 0; j < i; j++ {
					branch[j] = d.trace[j].chosen
				}
				branch[i] = c
				stack = append(stack, branch)
			}
		}
	}
	res.StatesSeen = len(seen)
	res.Exhausted = len(stack) == 0
	return res, nil
}
