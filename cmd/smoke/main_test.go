package main

import (
	"os"
	"testing"
)

// TestRunRejectsBadScenarios: the gate cannot pass by running nothing. No
// scenario, or an unknown one next to a known one, is an error returned
// before a work directory exists, so nothing was built.
func TestRunRejectsBadScenarios(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, args := range [][]string{nil, {"nope"}, {"obs", "nope"}} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Errorf("run created %v in the temp dir (err %v)", entries, err)
	}
}
