package farm

import (
	"encoding/json"
	"path/filepath"
	"reflect"
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
