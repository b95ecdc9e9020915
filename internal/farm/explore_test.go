package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"instantcheck/internal/explore"
	"instantcheck/internal/obs"
	"instantcheck/internal/racefilter"
)

// exploreSpec is the seeded Figure 7(b) hunt as a farm job: waterSP with
// the atomicity bug, race-directed search, a switch interval long enough
// that uniform schedules essentially never catch the racy window.
func exploreSpec(strategy string) JobSpec {
	return JobSpec{
		App:            "waterSP",
		Kind:           "explore",
		Strategy:       strategy,
		Bug:            "atomicity",
		Runs:           40,
		Threads:        4,
		InputSeed:      1,
		SwitchInterval: 4000,
		RoundFP:        true,
		Small:          true,
	}
}

// TestExploreJobEndToEnd drives an explore job through the HTTP API:
// submit, progress, report with the search outcome, hash log, metrics.
func TestExploreJobEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, c := startTestDaemon(t, filepath.Join(dir, "farm.log"), Options{})

	job, err := c.Submit(bg, exploreSpec("race-directed"))
	if err != nil {
		t.Fatal(err)
	}
	job = waitDone(t, c, job.ID)
	if job.State != JobDone || job.Error != "" {
		t.Fatalf("explore job finished as %s: %s", job.State, job.Error)
	}

	rep, err := c.Report(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Explore
	if out == nil {
		t.Fatal("explore job report has no explore outcome")
	}
	if out.Strategy != "race-directed" || out.Budget != 40 {
		t.Errorf("outcome = %+v", out)
	}
	if !out.Found || out.DivergedRun == 0 {
		t.Errorf("race-directed search missed the seeded bug: %+v", out)
	}
	if out.Hits == 0 {
		t.Error("no directed preemptions recorded")
	}
	if rep.Deterministic {
		t.Error("report claims deterministic despite a found divergence")
	}
	if job.RunsDone != out.Runs {
		t.Errorf("progress shows %d runs, outcome says %d", job.RunsDone, out.Runs)
	}

	// Every executed run's hash vector is in the store.
	logText, err := c.HashLog(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := ParseHashLog(strings.NewReader(logText))
	if err != nil {
		t.Fatal(err)
	}
	runs := map[int]bool{}
	for _, l := range lines {
		runs[l.Run] = true
	}
	if len(runs) != out.Runs {
		t.Errorf("hash log covers %d runs, outcome executed %d", len(runs), out.Runs)
	}

	// The strategy metric families exported by the daemon moved.
	var sb strings.Builder
	if err := srv.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	for _, want := range []string{
		`checkfarm_explore_runs_total{strategy="race-directed"}`,
		`checkfarm_explore_divergences_total{strategy="race-directed"}`,
		`checkfarm_explore_distinct_outcomes_total{strategy="race-directed"}`,
		`checkfarm_explore_hint_preemptions_total{strategy="race-directed"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}

	// Every race-directed run carries an access-event listener: the
	// detector on harvest runs, the race director on directed runs.
	samples, err := obs.ParseExposition(strings.NewReader(exp))
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Sum(samples, "checkfarm_detection_runs_total"); got != float64(out.Runs) {
		t.Errorf("checkfarm_detection_runs_total = %v, want the %d executed runs", got, out.Runs)
	}
}

// TestExploreRunDurationExcludesBookkeeping: an explore run's duration
// sample ends with the run. The store append and the progress report that
// follow it must not be charged to the next run.
func TestExploreRunDurationExcludesBookkeeping(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	spec := JobSpec{App: "fft", Kind: "explore", Strategy: "uniform", Runs: 5, Threads: 4, Small: true}
	const pause = 20 * time.Millisecond
	rep, err := runExploreJob(bg, "explore-1", spec, nil, m, func(done, total int) { time.Sleep(pause) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 5 || m.runDuration.Count() != 5 {
		t.Fatalf("executed %d runs, observed %d durations; want 5 each", rep.Runs, m.runDuration.Count())
	}
	if sum := m.runDuration.Sum(); sum >= 4*pause.Seconds() {
		t.Errorf("run durations sum to %.3fs, at least the 4 progress pauses between runs (%v each)", sum, pause)
	}
}

// TestExploreJobResume checks the restart path: a finished explore job's
// report is reassembled from the explored record, byte for byte.
func TestExploreJobResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "farm.log")

	spec := exploreSpec("uniform")
	spec.Runs = 4 // uniform won't find the bug; we only need a done job
	var id JobID
	var before *Report
	{
		_, c := startTestDaemon(t, path, Options{})
		job, err := c.Submit(bg, spec)
		if err != nil {
			t.Fatal(err)
		}
		job = waitDone(t, c, job.ID)
		if job.State != JobDone {
			t.Fatalf("job finished as %s: %s", job.State, job.Error)
		}
		id = job.ID
		if before, err = c.Report(bg, job.ID); err != nil {
			t.Fatal(err)
		}
	}

	_, c := startTestDaemon(t, path, Options{})
	after, err := c.Report(bg, id)
	if err != nil {
		t.Fatalf("report after restart: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("resumed report differs:\nbefore %+v\nafter  %+v", before, after)
	}
	if after.Explore == nil || after.Explore.Runs != spec.Runs {
		t.Errorf("resumed outcome = %+v", after.Explore)
	}
}

// TestExploreJobKilledMidSearch checks that an explore job survives a
// crash anywhere in its run records. Explore run records are flushed
// without fsync, so a crash of the machine can cut the log at any byte
// after the job line and before the explored record. The test cuts a
// finished job's log at every line boundary inside its run records, once
// inside each of those lines, and between the explored record and jobend,
// restarts a daemon on each prefix, and requires the uninterrupted job's
// report and hash log byte for byte, from the resumed daemon and again
// from one started on the log it left. A committed run whose hash was
// altered on disk must fail the resumed job instead.
func TestExploreJobKilledMidSearch(t *testing.T) {
	dir := t.TempDir()
	spec := exploreSpec("race-directed")
	spec.Runs = 10

	fullPath := filepath.Join(dir, "full.log")
	var id JobID
	var wantReport []byte
	var wantLog string
	{
		_, c := startTestDaemon(t, fullPath, Options{})
		job, err := c.Submit(bg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if job = waitDone(t, c, job.ID); job.State != JobDone {
			t.Fatalf("reference job finished as %s: %s", job.State, job.Error)
		}
		id = job.ID
		rep, err := c.Report(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Explore == nil || rep.Explore.Runs < 3 {
			t.Fatalf("reference search ran %+v; want a search of several runs", rep.Explore)
		}
		if wantReport, err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
		if wantLog, err = c.HashLog(bg, id); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	// Cut offsets: each run-record line's start and middle, the boundary
	// after the last runend (the explored line's start), and jobend's start.
	var cuts []int
	lastRunEnd := 0 // end of the last committed run's runend line
	pos := 0
	for _, l := range strings.SplitAfter(string(raw), "\n") {
		switch strings.SplitN(l, " ", 2)[0] {
		case "runstart", "cp", "out":
			cuts = append(cuts, pos, pos+len(l)/2)
		case "runend":
			cuts = append(cuts, pos, pos+len(l)/2)
			lastRunEnd = pos + len(l)
		case "explored", "jobend":
			cuts = append(cuts, pos)
		}
		pos += len(l)
	}

	resume := func(t *testing.T, prefix []byte) (string, *Job, *Client) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "crashed.log")
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		_, c := startTestDaemon(t, path, Options{})
		return path, waitDone(t, c, id), c
	}
	same := func(t *testing.T, c *Client) {
		t.Helper()
		rep, err := c.Report(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		gotReport, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotReport) != string(wantReport) {
			t.Errorf("report differs:\nfull    %s\nresumed %s", wantReport, gotReport)
		}
		gotLog, err := c.HashLog(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		if gotLog != wantLog {
			t.Errorf("hash log differs:\nfull\n%s\nresumed\n%s", wantLog, gotLog)
		}
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			path, job, c := resume(t, raw[:cut])
			if job.State != JobDone || job.Error != "" {
				t.Fatalf("resumed job %s: %s", job.State, job.Error)
			}
			same(t, c)
			// The resumed log itself holds the same job: a daemon
			// started on it serves both from disk.
			_, c = startTestDaemon(t, path, Options{})
			same(t, c)
		})
	}

	// Flip one hex digit of a committed checkpoint hash: the re-run
	// reproduces the true hash, and AppendRun must refuse it.
	t.Run("flipped", func(t *testing.T) {
		prefix := slices.Clone(raw[:lastRunEnd])
		at := bytes.Index(prefix, []byte("\ncp ")) + 1
		if at == 0 {
			t.Fatal("log has no cp line")
		}
		line := string(prefix[at : at+bytes.IndexByte(prefix[at:], '\n')])
		sh := strings.Fields(line)[4] // cp <id> <run> <ordinal> <sh> <label>
		hexAt := at + strings.Index(line, " "+sh+" ") + 1
		if prefix[hexAt] == '0' {
			prefix[hexAt] = '1'
		} else {
			prefix[hexAt] = '0'
		}
		_, job, _ := resume(t, prefix)
		if job.State != JobFailed || !strings.Contains(job.Error, "duplicate append disagrees") {
			t.Errorf("resumed job with an altered hash finished as %s: %q; want a failed duplicate append", job.State, job.Error)
		}
	})
}

// TestExploreSpecValidation checks the submit-time guards on the explore
// fields and on the sizes the job worker allocates from.
func TestExploreSpecValidation(t *testing.T) {
	bad := []JobSpec{
		{App: "fft", Kind: "explode"},                        // unknown kind
		{App: "fft", Kind: "explore", Strategy: "annealing"}, // unknown strategy
		{App: "fft", Strategy: "pct"},                        // strategy on a check job
		{App: "fft", PCTDepth: 2},                            // pct depth on a check job
		{App: "fft", Bug: "atomicity"},                       // fft hosts no bug
		{App: "waterSP", Kind: "explore", Bug: "order"},      // wrong bug kind
		{App: "waterSP", Kind: "explore", Bug: "heisenbug"},  // unknown bug
		// Out-of-range sizes the job worker would allocate from.
		{App: "fft", Threads: racefilter.MaxThreads + 1},
		{App: "fft", Threads: 1 << 40},
		{App: "fft", Runs: explore.DefaultMaxRuns + 1},
		{App: "fft", Runs: 1 << 50},
		{App: "waterSP", Kind: "explore", Strategy: "pct", PCTDepth: -1},
		{App: "waterSP", Kind: "explore", Strategy: "pct", PCTDepth: explore.MaxPCTDepth + 1},
		{App: "waterSP", Kind: "explore", Strategy: "pct", PCTDepth: 1 << 60},
	}
	for _, spec := range bad {
		if _, _, err := spec.Resolve(); err == nil {
			t.Errorf("spec %+v resolved", spec)
		}
	}
	good := []JobSpec{
		{App: "fft", Kind: "check"},
		{App: "waterSP", Kind: "explore"},
		{App: "waterSP", Kind: "explore", Strategy: "pct", PCTDepth: 2},
		{App: "waterSP", Bug: "atomicity"}, // seeded bug on a check job
		{App: "fft", Threads: racefilter.MaxThreads, Runs: explore.DefaultMaxRuns},
		{App: "waterSP", Kind: "explore", Strategy: "pct", PCTDepth: explore.MaxPCTDepth},
	}
	for _, spec := range good {
		if _, _, err := spec.Resolve(); err != nil {
			t.Errorf("spec %+v rejected: %v", spec, err)
		}
	}
}

// TestCheckSpecWireUnchanged pins the check-job wire format: the new
// fields are omitempty, so specs and reports that do not use them encode
// byte-identically to earlier daemons.
func TestCheckSpecWireUnchanged(t *testing.T) {
	specJSON, err := json.Marshal(JobSpec{App: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	if string(specJSON) != `{"app":"fft"}` {
		t.Errorf("minimal spec encodes as %s", specJSON)
	}
	repJSON, err := json.Marshal(&Report{Program: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(repJSON), "explore") {
		t.Errorf("check report leaks explore field: %s", repJSON)
	}
}
