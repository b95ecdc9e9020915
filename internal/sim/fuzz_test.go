package sim

import (
	"testing"

	"instantcheck/internal/replay"
)

// FuzzIncrementalEqualsTraversal fuzzes the central invariant over program
// shapes and schedules: the incrementally maintained State Hash equals the
// traversal hash at every checkpoint.
func FuzzIncrementalEqualsTraversal(f *testing.F) {
	f.Add(uint64(1), int64(1))
	f.Add(uint64(0xdeadbeef), int64(-7))
	f.Fuzz(func(t *testing.T, progSeed uint64, schedSeed int64) {
		log := replay.NewAddrLog()
		inc := runFuzz(t, HWInc, progSeed, schedSeed, log)
		tr := runFuzz(t, SWTr, progSeed, schedSeed, log)
		if len(inc.Checkpoints) != len(tr.Checkpoints) {
			t.Fatalf("checkpoint counts differ: %d vs %d", len(inc.Checkpoints), len(tr.Checkpoints))
		}
		for i := range inc.Checkpoints {
			if inc.Checkpoints[i].SH != tr.Checkpoints[i].SH {
				t.Fatalf("checkpoint %d: %s vs %s", i, inc.Checkpoints[i].SH, tr.Checkpoints[i].SH)
			}
		}
	})
}
