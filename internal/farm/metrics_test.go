package farm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"instantcheck/internal/obs"
)

// sampleValue finds one sample by name and optional label match, failing
// the test when it is absent.
func sampleValue(t *testing.T, samples []obs.Sample, name string, labels map[string]string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("no sample %s%v in scrape", name, labels)
	return 0
}

// TestMetricsEndpoint runs a campaign to completion and checks the scrape:
// the exposition lints clean and the job-lifecycle, store and hash-path
// series carry the values the campaign must have produced.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv, c := startTestDaemon(t, filepath.Join(dir, "farm.log"), Options{RunWorkers: 4})

	spec := smokeSpec("fft", "mix64")
	job, err := c.Submit(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, c, job.ID).State; st != JobDone {
		t.Fatalf("job state %s", st)
	}

	text, err := c.MetricsText(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, text)
	}
	samples, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}

	// Job lifecycle.
	if v := sampleValue(t, samples, "checkfarm_jobs_submitted_total", nil); v != 1 {
		t.Errorf("jobs_submitted = %v, want 1", v)
	}
	if v := sampleValue(t, samples, "checkfarm_jobs_finished_total", map[string]string{"state": "done"}); v != 1 {
		t.Errorf("jobs_finished{done} = %v, want 1", v)
	}
	if v := sampleValue(t, samples, "checkfarm_jobs_running", nil); v != 0 {
		t.Errorf("jobs_running = %v, want 0", v)
	}
	if v := sampleValue(t, samples, "checkfarm_queue_depth", nil); v != 0 {
		t.Errorf("queue_depth = %v, want 0", v)
	}
	if v := sampleValue(t, samples, "checkfarm_runs_executed_total", nil); v != float64(spec.Runs) {
		t.Errorf("runs_executed = %v, want %d", v, spec.Runs)
	}
	if v := sampleValue(t, samples, "checkfarm_job_duration_seconds_count", nil); v != 1 {
		t.Errorf("job_duration count = %v, want 1", v)
	}
	if v := sampleValue(t, samples, "checkfarm_run_duration_seconds_count", nil); v != float64(spec.Runs) {
		t.Errorf("run_duration count = %v, want %d", v, spec.Runs)
	}

	// Store: one job line, one jobend, 8 run batches, plus the header of a
	// fresh log — at least 10 durable appends, no errors reported.
	if v := sampleValue(t, samples, "checkfarm_store_appends_total", nil); v < 10 {
		t.Errorf("store_appends = %v, want >= 10", v)
	}
	if v := sampleValue(t, samples, "checkfarm_store_append_seconds_count", nil); v < 10 {
		t.Errorf("store_append_seconds count = %v, want >= 10", v)
	}

	// Hash path: the default scheme is HW-InstantCheck_Inc; an incremental
	// campaign hashes every data store, and stores/checkpoints are exact
	// multiples of the per-run counters, so nonzero is the portable check.
	scheme := map[string]string{"scheme": "HW-InstantCheck_Inc"}
	stores := sampleValue(t, samples, "instantcheck_stores_total", scheme)
	hashed := sampleValue(t, samples, "instantcheck_stores_hashed_total", scheme)
	if stores <= 0 || hashed <= 0 {
		t.Errorf("stores=%v hashed=%v, want both > 0", stores, hashed)
	}
	if hashed < stores {
		t.Errorf("stores_hashed (%v) < stores (%v): incremental scheme must hash every data store", hashed, stores)
	}
	cps := sampleValue(t, samples, "instantcheck_checkpoints_total", scheme)
	if cps <= 0 {
		t.Errorf("checkpoints = %v, want > 0", cps)
	}
	if v := sampleValue(t, samples, "instantcheck_checkpoint_words_total", scheme); v <= 0 {
		t.Errorf("checkpoint_words = %v, want > 0", v)
	}
	// Store-buffer batching is on by default for the incremental schemes:
	// every run drains at least once (thread exit). For fft the drained
	// words stay below the hashed stores — coalescing and elision only
	// remove work. (Not an invariant for every app: free erasure also
	// feeds the buffer, so free-heavy workloads can drain more words than
	// HashedStores counts.)
	flushes := sampleValue(t, samples, "instantcheck_storebuffer_flushes_total", scheme)
	drained := sampleValue(t, samples, "instantcheck_storebuffer_drained_words_total", scheme)
	if flushes <= 0 || drained <= 0 {
		t.Errorf("storebuffer flushes=%v drained=%v, want both > 0", flushes, drained)
	}
	if drained > hashed {
		t.Errorf("storebuffer drained words (%v) > stores hashed (%v)", drained, hashed)
	}
	// Fast-window accounting: both sides of the derived hit rate must be
	// populated. (How they compare is workload-dependent — fft's scattered
	// bit-reversal accesses miss the one-page window most of the time,
	// which is exactly what this metric exists to reveal.)
	hits := sampleValue(t, samples, "instantcheck_fastwindow_hits_total", nil)
	misses := sampleValue(t, samples, "instantcheck_fastwindow_misses_total", nil)
	if hits <= 0 || misses <= 0 {
		t.Errorf("fastwindow hits=%v misses=%v, want both > 0", hits, misses)
	}

	// Health endpoint: JSON liveness with the queue summary.
	h, err := c.Health(bg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Jobs != 1 || h.QueueDepth != 0 || h.Running != 0 {
		t.Errorf("health = %+v", h)
	}
	if h.StorePath != srv.store.Path() {
		t.Errorf("health store path = %q", h.StorePath)
	}
}

// logCapture is a threadsafe Logf sink.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

func (lc *logCapture) contains(sub string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// TestEndJobWriteFailureSurfaced is the crash-consistency regression test:
// when the store cannot record a job's terminal state, the failure must be
// logged and surfaced on the job for EVERY terminal state — the old code
// only looked at the error when the job was done, so a failed job whose
// jobend line was lost would silently resurrect on the next daemon start.
func TestEndJobWriteFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "farm.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var logs logCapture
	srv := NewServer(store, Options{RunWorkers: 1, Logf: logs.logf})

	job, err := srv.Submit(smokeSpec("fft", "mix64"))
	if err != nil {
		t.Fatal(err)
	}
	// Break the store under the daemon: every append from here on fails,
	// so the job fails (run commits are lost) AND its jobend is lost too.
	store.f.Close()

	srv.mu.Lock()
	live := srv.jobs[job.ID]
	live.State = JobRunning
	srv.mu.Unlock()
	srv.execute(context.Background(), live)

	got := srv.Job(job.ID)
	if got.State != JobFailed {
		t.Fatalf("job state = %s, want failed", got.State)
	}
	if !strings.Contains(got.Error, "jobend not recorded") {
		t.Errorf("job error does not surface the lost terminal record: %q", got.Error)
	}
	if !logs.contains("recording terminal state") {
		t.Errorf("lost jobend was not logged: %v", logs.lines)
	}
	if v := srv.metrics.storeErrors.With("jobend").Value(); v != 1 {
		t.Errorf("store_errors{jobend} = %d, want 1", v)
	}
}

// TestCancelQueuedEndJobFailureSurfaced covers the same lost-jobend bug on
// the queued-cancel path, which dropped the store error entirely.
func TestCancelQueuedEndJobFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "farm.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var logs logCapture
	srv := NewServer(store, Options{Logf: logs.logf}) // never started: job stays queued

	job, err := srv.Submit(smokeSpec("fft", "mix64"))
	if err != nil {
		t.Fatal(err)
	}
	store.f.Close()

	if !srv.Cancel(job.ID) {
		t.Fatal("cancel of queued job reported false")
	}
	got := srv.Job(job.ID)
	if got.State != JobCanceled {
		t.Fatalf("job state = %s, want canceled", got.State)
	}
	if !strings.Contains(got.Error, "jobend not recorded") {
		t.Errorf("cancel dropped the store error: job error = %q", got.Error)
	}
	if !logs.contains("recording cancellation failed") {
		t.Errorf("lost cancellation record was not logged: %v", logs.lines)
	}
}

// goldenJobs are the campaigns behind the /metrics golden: a check job
// under an incremental and under the traversal scheme, and a race-directed
// explore job whose harvest and directed runs carry access-event listeners.
var goldenJobs = []JobSpec{
	{App: "fft", Scheme: "hwinc", Runs: 3, Threads: 4, Small: true},
	{App: "fft", Scheme: "swtr", Runs: 3, Threads: 4, Small: true},
	{App: "waterSP", Kind: "explore", Strategy: "race-directed", Bug: "atomicity",
		Runs: 4, Threads: 4, InputSeed: 1, RoundFP: true, Small: true},
}

// timingSample reports an exposition sample line whose value depends on
// wall time: histogram buckets and sums of the latency families, and the
// uptime gauge. Their HELP and TYPE lines, and the _count samples, stay.
func timingSample(line string) bool {
	if strings.HasPrefix(line, "#") {
		return false
	}
	name, _, _ := strings.Cut(line, "{")
	name, _, _ = strings.Cut(name, " ")
	return strings.HasSuffix(name, "_seconds_bucket") || strings.HasSuffix(name, "_seconds_sum") ||
		name == "checkfarm_uptime_seconds"
}

// TestMetricsGolden pins the farm's /metrics exposition byte for byte: a
// fresh daemon's scrape, then the scrape after goldenJobs, with the
// timing-dependent samples dropped. Every family's name, help text, type
// and label set, and every count the runs contribute, must stay put.
func TestMetricsGolden(t *testing.T) {
	_, c := startTestDaemon(t, filepath.Join(t.TempDir(), "farm.log"), Options{RunWorkers: 2})
	var got strings.Builder
	scrape := func(title string) {
		t.Helper()
		text, err := c.MetricsText(bg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "## %s\n", title)
		for _, line := range strings.SplitAfter(text, "\n") {
			if !timingSample(line) {
				got.WriteString(line)
			}
		}
	}
	scrape("fresh daemon")
	for _, spec := range goldenJobs {
		job, err := c.Submit(bg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if job = waitDone(t, c, job.ID); job.State != JobDone {
			t.Fatalf("%s %s job finished as %s: %s", spec.App, spec.Kind, job.State, job.Error)
		}
	}
	scrape("after fft hwinc, fft swtr and a waterSP race-directed explore job")

	golden := filepath.Join("testdata", "farm_metrics.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("/metrics drifted from %s at line %d:\n got  %q\n want %q\nfull scrape:\n%s",
				golden, i+1, g, w, got.String())
		}
	}
}
