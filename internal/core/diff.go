package core

import (
	"fmt"

	"instantcheck/internal/fpround"
	"instantcheck/internal/mem"
)

// DiffCapture holds the full memory states of two runs at the first
// checkpoint where their hashes differ — the input to the state-diff
// debugging tool (§2.3). InstantCheck itself only stores 64-bit hashes;
// when nondeterminism is found, the prototype re-executes the two differing
// runs and stores entire states at the point of divergence.
type DiffCapture struct {
	// Ordinal is the first checkpoint ordinal at which the runs differ.
	Ordinal int
	// Label is the checkpoint's label.
	Label string
	// RunA and RunB are the 1-based indices of the two differing runs.
	RunA int
	// RunB is the second differing run (the first one whose vector differs
	// from RunA's).
	RunB int
	// A and B are the captured states.
	A *mem.Snapshot
	// B is the state of RunB at the same checkpoint.
	B *mem.Snapshot
	// Round is the policy the State Hash rounded float words with, the
	// zero Policy when it hashed raw bits. A state diff compares float
	// words under it, so it lists only words that moved the hash.
	Round fpround.Policy
}

// captureDiff re-executes run 1 and run FirstNDetRun through a fresh
// Runner that snapshots the first checkpoint where their hash vectors
// diverge. The Runner replays run B exactly as the campaign did — on its
// own fork of the re-recorded logs — so the snapshots are of the very
// executions the report compared.
func (c Campaign) captureDiff(build Builder, rep *Report) error {
	runA, runB := 0, rep.FirstNDetRun-1
	va := rep.Runs[runA].SHVector()
	vb := rep.Runs[runB].SHVector()
	n := min(len(va), len(vb))
	ord := -1
	for i := 0; i < n; i++ {
		if va[i] != vb[i] {
			ord = i
			break
		}
	}
	if ord < 0 {
		// Vectors agree on the common prefix; the divergence is the
		// checkpoint-count mismatch itself. Snapshot the last common point.
		if n == 0 {
			return fmt.Errorf("no common checkpoint between runs %d and %d", runA+1, runB+1)
		}
		ord = n - 1
	}
	r, err := c.NewRunner(build)
	if err != nil {
		return err
	}
	r.snapshotAt = map[int]bool{ord: true}
	resA, err := r.Record()
	if err != nil {
		return err
	}
	resB, err := r.Replay(runB)
	if err != nil {
		return err
	}
	if ord >= len(resA.Checkpoints) || ord >= len(resB.Checkpoints) {
		return fmt.Errorf("re-execution produced fewer checkpoints than ordinal %d", ord)
	}
	rep.DiffSnapshots = &DiffCapture{
		Ordinal: ord,
		Label:   resA.Checkpoints[ord].Label,
		RunA:    runA + 1,
		RunB:    runB + 1,
		A:       resA.Checkpoints[ord].Snapshot,
		B:       resB.Checkpoints[ord].Snapshot,
	}
	if c.RoundFP {
		rep.DiffSnapshots.Round = c.Rounding
	}
	return nil
}
