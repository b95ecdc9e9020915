// Package dreplay implements the deterministic-replay application of the
// InstantCheck primitive (paper §6.3). Recent replay systems record only a
// *partial* log of an execution and then search many candidate executions
// that obey it, hoping one recreates the bug. Two problems remain: (1) a
// candidate may recreate the bug but not the entire state, so the
// programmer cannot inspect all variables as they were; (2) a candidate
// that diverges is only discovered late.
//
// The paper proposes adding InstantCheck state hashes to the partial log:
// the original run records its per-checkpoint State Hash vector (64 bits
// per checkpoint — tiny), and replay candidates are validated against it.
// A candidate that matches every checkpoint hash has provably (modulo
// 2⁻⁶⁴ per comparison) reproduced the *entire memory state* at every
// checkpoint, not just the symptom; a candidate that diverges is killed at
// the first mismatching checkpoint rather than running to completion.
//
// This package records such hash logs and searches schedule seeds for an
// exact replay, using the simulator's checkpoint hook for the early
// mismatch cutoff.
package dreplay

import (
	"errors"
	"fmt"

	"instantcheck/internal/ihash"
	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// Log is the state-hash portion of a partial execution log.
type Log struct {
	// Hashes is the per-checkpoint State Hash vector of the original run.
	Hashes []ihash.Digest
	// OutputHash is the original run's output-stream hash.
	OutputHash uint64
	// Seed is the original run's schedule seed (kept for tests; a real
	// system records timing hints instead).
	Seed int64
	// env and addrLog pin the recorded input.
	env     *replay.Env
	addrLog *replay.AddrLog
	cfg     Config
}

// Config describes the program configuration being recorded/replayed.
type Config struct {
	// Threads is the worker thread count (at least 1).
	Threads int
	// RoundFP enables FP rounding in the hashes.
	RoundFP bool
	// InputSeed fixes the program input.
	InputSeed int64
	// SwitchInterval is the scheduler preemption interval.
	SwitchInterval int
}

// Record executes the program once under the given schedule seed and
// returns the hash log of that original execution. A log's replay
// candidates reuse its Config, so Record is where it is checked.
func Record(build func() sim.Program, cfg Config, seed int64) (*Log, error) {
	if cfg.Threads < 1 {
		return nil, fmt.Errorf("dreplay: threads = %d; want at least 1", cfg.Threads)
	}
	env := replay.NewEnv(cfg.InputSeed)
	addrLog := replay.NewAddrLog()
	m := sim.NewMachine(sim.Config{
		Threads:        cfg.Threads,
		ScheduleSeed:   seed,
		SwitchInterval: cfg.SwitchInterval,
		Scheme:         sim.HWInc,
		RoundFP:        cfg.RoundFP,
		Env:            env,
		AddrLog:        addrLog,
	})
	res, err := m.Run(build())
	if err != nil {
		return nil, fmt.Errorf("dreplay: recording run: %w", err)
	}
	return &Log{
		Hashes:     res.SHVector(),
		OutputHash: res.OutputHash,
		Seed:       seed,
		env:        env,
		addrLog:    addrLog,
		cfg:        cfg,
	}, nil
}

// errMismatch cancels a candidate at its first diverging checkpoint.
var errMismatch = errors.New("dreplay: checkpoint hash mismatch")

// Attempt is the outcome of one replay candidate.
type Attempt struct {
	// Seed is the candidate schedule seed.
	Seed int64
	// Match reports whether every checkpoint hash matched the log.
	Match bool
	// DivergedAt is the ordinal of the first mismatching checkpoint
	// (-1 when Match).
	DivergedAt int
	// Checkpoints is how many checkpoints this candidate executed before
	// matching or being cut off.
	Checkpoints int
}

// Result summarizes a replay search.
type Result struct {
	// Found reports whether a full-state replay was found.
	Found bool
	// Seed is the matching schedule seed (meaningful when Found).
	Seed int64
	// Attempts lists every candidate tried, in order.
	Attempts []Attempt
	// CheckpointsExecuted sums the checkpoints executed across all
	// candidates: with early cutoff, diverging candidates stop at their
	// first bad checkpoint, so this is far below candidates × log length.
	CheckpointsExecuted int
}

// TrySeed executes one replay candidate under the log, stopping at the
// first checkpoint whose hash disagrees.
func (l *Log) TrySeed(build func() sim.Program, seed int64) (Attempt, error) {
	at := Attempt{Seed: seed, DivergedAt: -1}
	executed := 0
	hook := func(cp sim.Checkpoint) error {
		executed++
		if cp.Ordinal >= len(l.Hashes) || cp.SH != l.Hashes[cp.Ordinal] {
			at.DivergedAt = cp.Ordinal
			return errMismatch
		}
		return nil
	}
	m := sim.NewMachine(sim.Config{
		Threads:        l.cfg.Threads,
		ScheduleSeed:   seed,
		SwitchInterval: l.cfg.SwitchInterval,
		Scheme:         sim.HWInc,
		RoundFP:        l.cfg.RoundFP,
		Env:            l.env,
		AddrLog:        l.addrLog,
		CheckpointHook: hook,
	})
	res, err := m.Run(build())
	at.Checkpoints = executed
	switch {
	case err == nil:
		at.Match = len(res.Checkpoints) == len(l.Hashes) && res.OutputHash == l.OutputHash
		if !at.Match && at.DivergedAt < 0 {
			at.DivergedAt = len(res.Checkpoints)
		}
		return at, nil
	case errors.Is(err, errMismatch):
		return at, nil
	default:
		return at, err
	}
}

// Search tries candidate schedule seeds until one reproduces the entire
// hash log (a full-state replay) or maxAttempts is exhausted.
func (l *Log) Search(build func() sim.Program, firstSeed int64, maxAttempts int) (*Result, error) {
	res := &Result{}
	for i := 0; i < maxAttempts; i++ {
		seed := firstSeed + int64(i)
		at, err := l.TrySeed(build, seed)
		if err != nil {
			return nil, fmt.Errorf("dreplay: candidate seed %d: %w", seed, err)
		}
		res.Attempts = append(res.Attempts, at)
		res.CheckpointsExecuted += at.Checkpoints
		if at.Match {
			res.Found = true
			res.Seed = seed
			return res, nil
		}
	}
	return res, nil
}
