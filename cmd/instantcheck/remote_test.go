package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"instantcheck/internal/farm"
)

// TestRemoteCompareLiveDaemon pins what remote compare prints for jobs on
// a real farm.Server and for saved hash logs: each side is fetched or read
// and the two are diffed by the client.
func TestRemoteCompareLiveDaemon(t *testing.T) {
	spec := farm.JobSpec{App: "barnes", Runs: 3, Threads: 4, Small: true}
	other := spec
	other.Seed = 100
	ctx, c, ids := liveDaemon(t, spec, other)
	log, err := c.HashLog(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(log, "\n")
	perRun := (len(lines) - 1) / spec.Runs
	dir := t.TempDir()
	file := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return "@" + path
	}
	saved := file("saved", log)
	truncated := file("truncated", strings.Join(lines[:perRun+perRun/2], ""))
	a, b := string(ids[0]), string(ids[1])
	for _, tc := range []struct{ a, b, want string }{
		{a, a, "equal: 3 runs, hash-identical\n"},
		{a, saved, "equal: 3 runs, hash-identical\n"},
		{a, b, "DIFFER: 3/3 compared runs diverge (a has 3 runs, b has 3)\n" +
			"first divergence: run 1 checkpoint 2 (bn.insert): 8912366c168f9f98 vs 31dea9f8aabcc3bc\n"},
		// Run 1 is cut short in the file, and run 2 is in the job only.
		{a, truncated, "DIFFER: 1/2 compared runs diverge, 1 runs in a only (a has 3 runs, b has 2)\n" +
			"first divergence: run 2 checkpoint 4 (bn.advance): 732720e6459b331e vs (missing)\n"},
		{truncated, a, "DIFFER: 1/2 compared runs diverge, 1 runs in b only (a has 2 runs, b has 3)\n" +
			"first divergence: run 2 checkpoint 4 (bn.advance): (missing) vs 732720e6459b331e\n"},
	} {
		var out bytes.Buffer
		if err := remoteCompare(ctx, c, []string{tc.a, tc.b}, &out); err != nil {
			t.Errorf("compare %s %s: %v", tc.a, tc.b, err)
		} else if out.String() != tc.want {
			t.Errorf("compare %s %s printed\n%s\nwant\n%s", tc.a, tc.b, out.String(), tc.want)
		}
	}

	negative := file("negative", "0 0 0000000000000001 \"b\"\n-5 0 0000000000000001 \"end\"\n")
	if err := remoteCompare(ctx, c, []string{a, negative}, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("compare with a run -5 line: err = %v, want one naming line 2", err)
	}
}
