package farm

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// startTestDaemon wires a store into a served daemon and returns a client
// for it. The daemon is torn down with the test.
var bg = context.Background()

func startTestDaemon(t *testing.T, storePath string, opts Options) (*Server, *Client) {
	t.Helper()
	store, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, opts)
	srv.Resume()
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		srv.Wait()
		store.Close()
	})
	return srv, NewClient(hs.URL)
}

func waitDone(t *testing.T, c *Client, id JobID) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := c.Wait(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return job
}

// TestServerEndToEnd drives the whole service through its HTTP API:
// submit, status, report, hash-log streaming, cross-host compare, cancel.
func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, c := startTestDaemon(t, filepath.Join(dir, "farm.log"), Options{RunWorkers: 4})

	spec := smokeSpec("fft", "mix64")
	job, err := c.Submit(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State != JobQueued {
		t.Fatalf("submitted job = %+v", job)
	}
	job = waitDone(t, c, job.ID)
	if job.State != JobDone || job.Error != "" {
		t.Fatalf("job finished as %s: %s", job.State, job.Error)
	}
	if job.RunsDone != spec.Runs || job.RunsTotal != spec.Runs {
		t.Errorf("progress = %d/%d, want %d/%d", job.RunsDone, job.RunsTotal, spec.Runs, spec.Runs)
	}

	// The served report matches a direct in-process execution.
	rep, err := c.Report(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := runJob(context.Background(), "j000000", spec, nil, nil, nil, smokeWorkers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("served report differs from direct execution:\nhttp   %+v\ndirect %+v", rep, want)
	}
	if !rep.Deterministic || rep.Program != "fft" || rep.Runs != spec.Runs {
		t.Errorf("fft report = %+v", rep)
	}

	// The hash-log stream parses and covers every (run, checkpoint).
	logText, err := c.HashLog(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := ParseHashLog(strings.NewReader(logText))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != spec.Runs*rep.Points {
		t.Errorf("hash log has %d lines, want %d runs x %d checkpoints", len(lines), spec.Runs, rep.Points)
	}

	// Cross-host compare: the fetched text log against the job it came
	// from (the two-host flow with both ends on one daemon).
	cmp, err := c.Compare(bg, CompareRequest{LogA: logText, JobB: job.ID})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Equal || cmp.RunsCompared != spec.Runs {
		t.Errorf("self compare = %+v", cmp)
	}

	// A different workload's log diverges.
	spec2 := smokeSpec("barnes", "mix64")
	job2, err := c.Submit(bg, spec2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, job2.ID)
	cmp, err = c.Compare(bg, CompareRequest{JobA: job.ID, JobB: job2.ID})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Equal || cmp.First == nil {
		t.Errorf("fft-vs-barnes compare = %+v", cmp)
	}

	// Error surface: unknown job is 404, bad spec is rejected.
	if _, err := c.Report(bg, "j999999"); err == nil {
		t.Error("report for unknown job succeeded")
	}
	if _, err := c.Submit(bg, JobSpec{App: "no-such-app"}); err == nil {
		t.Error("bad spec accepted")
	}

	// All three jobs... two jobs are listed, in submission order.
	jobs, err := c.Jobs(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != job.ID || jobs[1].ID != job2.ID {
		t.Errorf("job list = %+v", jobs)
	}
}

// TestServerCancel checks cancellation of a queued job (the daemon has one
// job worker, so a second submission waits in the queue).
func TestServerCancel(t *testing.T) {
	dir := t.TempDir()
	_, c := startTestDaemon(t, filepath.Join(dir, "farm.log"), Options{RunWorkers: 2, JobWorkers: 1})

	first, err := c.Submit(bg, smokeSpec("radix", "mix64"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(bg, smokeSpec("lu", "mix64"))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.Cancel(bg, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	job := waitDone(t, c, queued.ID)
	if ok && job.State != JobCanceled {
		t.Errorf("canceled job reached state %s", job.State)
	}
	if job := waitDone(t, c, first.ID); job.State != JobDone {
		t.Errorf("first job = %s: %s", job.State, job.Error)
	}
	// Terminal jobs cannot be canceled again.
	if ok, _ := c.Cancel(bg, first.ID); ok {
		t.Error("cancel of finished job reported true")
	}
}

// TestServerKilledAndRestarted is the acceptance scenario: a daemon dies
// mid-campaign (simulated by truncating its store to a committed prefix
// plus a torn line), a fresh daemon opens the same store, and the resumed
// campaign converges to the exact report of an uninterrupted one.
func TestServerKilledAndRestarted(t *testing.T) {
	dir := t.TempDir()
	spec := smokeSpec("radix", "crc64")

	// Uninterrupted daemon: the reference report.
	fullPath := filepath.Join(dir, "full.log")
	_, c1 := startTestDaemon(t, fullPath, Options{RunWorkers: 4})
	job, err := c1.Submit(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, c1, job.ID).State; st != JobDone {
		t.Fatalf("reference job state %s", st)
	}
	want, err := c1.Report(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" the daemon mid-campaign: a copy of its store truncated after
	// the 3rd run commit, ending in a torn line.
	raw, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	var prefix strings.Builder
	committed := map[string]bool{}
	for _, l := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(l, "jobend ") {
			continue // the crash happened before the job finished
		}
		prefix.WriteString(l)
		if strings.HasPrefix(l, "runend ") {
			committed[strings.Fields(l)[2]] = true
			if len(committed) == 3 {
				break
			}
		}
	}
	// The torn attempt must be of a run the prefix did not commit (runs
	// commit in nondeterministic order under the parallel worker pool).
	tornRun := ""
	for run := 0; run < spec.Runs; run++ {
		if r := strconv.Itoa(run); !committed[r] {
			tornRun = r
			break
		}
	}
	prefix.WriteString("runstart " + string(job.ID) + " " + tornRun + "\ncp " + string(job.ID) + " " + tornRun + " 0 12")
	crashPath := filepath.Join(dir, "crashed.log")
	// Count the committed runs on a copy: the restarted daemon resumes the
	// job as soon as it starts, so its own store may already hold more,
	// and opening the crashed store first would terminate its torn line.
	copyPath := filepath.Join(dir, "crashed-copy.log")
	for _, p := range []string{crashPath, copyPath} {
		if err := os.WriteFile(p, []byte(prefix.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	crashed, err := OpenStore(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if jl := crashed.Job(job.ID); len(jl.CompletedRuns()) != 3 {
		t.Fatalf("crashed store has %v committed", jl.CompletedRuns())
	}
	crashed.Close()

	// Restarted daemon on the surviving store.
	_, c2 := startTestDaemon(t, crashPath, Options{RunWorkers: 4})
	resumed := waitDone(t, c2, job.ID)
	if resumed.State != JobDone || resumed.Error != "" {
		t.Fatalf("resumed job %s: %s", resumed.State, resumed.Error)
	}
	got, err := c2.Report(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed daemon's report differs:\nfull    %+v\nresumed %+v", want, got)
	}

	// And a third start over the now-complete log serves the same report
	// without executing anything.
	srv3, c3 := startTestDaemon(t, crashPath, Options{RunWorkers: 4})
	if n := srv3.Job(job.ID); n == nil || n.State != JobDone {
		t.Fatalf("job not done after clean restart: %+v", n)
	}
	again, err := c3.Report(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Errorf("report reassembled from log differs from live report")
	}
}

// TestPostedParallelismNotPersisted posts a spec that still carries the
// deleted "parallelism" field. The daemon accepts it and runs the job on
// its own pool, and neither the job it serves nor the spec it persists,
// which every restart would re-run, carries the field.
func TestPostedParallelismNotPersisted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "farm.log")
	_, c := startTestDaemon(t, path, Options{RunWorkers: 2})
	resp, err := http.Post(c.BaseURL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"app":"fft","runs":4,"threads":2,"small":true,"parallelism":100000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if done := waitDone(t, c, job.ID); done.State != JobDone {
		t.Fatalf("job %s: %s", done.State, done.Error)
	}
	got, err := c.Job(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	served, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	persisted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for what, b := range map[string][]byte{"served job": served, "store": persisted} {
		if strings.Contains(string(b), "parallelism") {
			t.Errorf("%s carries the posted parallelism: %s", what, b)
		}
	}
}

// blanks reads as an endless run of spaces, so a test can post a body of
// any size without holding it in memory.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// postOverBound posts a JSON object one byte longer than limit, declaring
// its length or, when chunked, sending it without one, and returns the
// response status.
func postOverBound(t *testing.T, url string, limit int64, chunked bool) int {
	t.Helper()
	body := io.MultiReader(strings.NewReader("{"), io.LimitReader(blanks{}, limit-1), strings.NewReader("}"))
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if !chunked {
		req.ContentLength = limit + 1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRequestBodyBounds: a body one byte over an endpoint's bound gets 413,
// and the daemon then serves a normal request on the same endpoint. A body
// without a declared length is read up to the bound, so only the small
// bound is tested that way.
func TestRequestBodyBounds(t *testing.T) {
	_, c := startTestDaemon(t, filepath.Join(t.TempDir(), "farm.log"), Options{RunWorkers: 1})
	var log strings.Builder
	if err := WriteHashLog(&log, mkLog(2, 3)); err != nil {
		t.Fatal(err)
	}
	compare, err := json.Marshal(CompareRequest{LogA: log.String(), LogB: log.String()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path    string
		limit   int64
		chunked bool
		normal  string
		status  int
	}{
		{"/api/v1/jobs", maxSpecBody, false, `{"app":"fft","runs":2,"threads":2,"small":true}`, http.StatusAccepted},
		{"/api/v1/jobs", maxSpecBody, true, `{"app":"fft","runs":2,"threads":2,"small":true}`, http.StatusAccepted},
		{"/api/v1/compare", maxCompareBody, false, string(compare), http.StatusOK},
	} {
		if got := postOverBound(t, c.BaseURL+tc.path, tc.limit, tc.chunked); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s (chunked %v): a body one byte over the bound got %d, want 413", tc.path, tc.chunked, got)
		}
		resp, err := http.Post(c.BaseURL+tc.path, "application/json", strings.NewReader(tc.normal))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: the normal request after it got %s, want %d", tc.path, resp.Status, tc.status)
		}
	}
}

// TestCompareRejectsNegativeIndex: a hash log line with a negative run or
// ordinal fails to parse with an error naming the line, and the compare
// endpoint answers 400 with it. A log whose one line was run -5 used to
// compare equal to an empty log.
func TestCompareRejectsNegativeIndex(t *testing.T) {
	_, c := startTestDaemon(t, filepath.Join(t.TempDir(), "farm.log"), Options{RunWorkers: 1})
	for _, log := range []string{
		"0 0 0000000000000001 \"b\"\n-5 0 0000000000000001 \"end\"\n",
		"0 0 0000000000000001 \"b\"\n0 -1 0000000000000001 \"end\"\n",
	} {
		if _, err := ParseHashLog(strings.NewReader(log)); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%q parsed with error %v, want one naming line 2", log, err)
		}
		body, err := json.Marshal(CompareRequest{LogA: log, LogB: "0 0 0000000000000001 \"end\"\n"})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(c.BaseURL+"/api/v1/compare", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "line 2") {
			t.Errorf("compare of %q: %s %q (%v), want 400 naming line 2", log, resp.Status, e.Error, err)
		}
	}
}

// TestResumeStoreBufferWordsStore resumes a store written by a daemon
// whose JobSpec still had the store_buffer_words and parallelism fields:
// its job line carries "store_buffer_words":-1 (inline per-store hashing),
// "parallelism":8 and three committed runs. JSON decoding ignores the
// removed fields, and the store buffer's digests equal inline hashing's,
// so the resumed job must finish with the report and hash log of a fresh
// job.
func TestResumeStoreBufferWordsStore(t *testing.T) {
	dir := t.TempDir()
	legacy, err := os.ReadFile("testdata/store_buffer_words.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"store_buffer_words":-1`, `"parallelism":8`} {
		if !strings.Contains(string(legacy), field) {
			t.Fatalf("fixture lost its %s field", field)
		}
	}
	legacyPath := filepath.Join(dir, "legacy.log")
	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	const id = JobID("j000001")
	st, err := OpenStore(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	committed := len(st.Job(id).CompletedRuns())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if committed != 3 {
		t.Fatalf("fixture has %d committed runs, want 3", committed)
	}
	_, c := startTestDaemon(t, legacyPath, Options{RunWorkers: 2})
	if job := waitDone(t, c, id); job.State != JobDone {
		t.Fatalf("resumed job %s: %s", job.State, job.Error)
	}

	spec := smokeSpec("radix", "mix64")
	spec.Scheme = "swinc"
	_, fc := startTestDaemon(t, filepath.Join(dir, "fresh.log"), Options{RunWorkers: 2})
	fresh, err := fc.Submit(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if job := waitDone(t, fc, fresh.ID); job.State != JobDone {
		t.Fatalf("fresh job %s: %s", job.State, job.Error)
	}

	gotRep, err := c.Report(bg, id)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := fc.Report(bg, fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("resumed report differs from a fresh job's:\nresumed %+v\nfresh   %+v", gotRep, wantRep)
	}
	gotLog, err := c.HashLog(bg, id)
	if err != nil {
		t.Fatal(err)
	}
	wantLog, err := fc.HashLog(bg, fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotLog != wantLog {
		t.Errorf("resumed hash log differs from a fresh job's:\nresumed:\n%s\nfresh:\n%s", gotLog, wantLog)
	}
}

// TestResumeOutOfRangeJobFails resumes a store holding jobs whose specs
// once crashed the job worker (and, persisted before they ran, every
// restart after it). The daemon must fail each job with an error.
func TestResumeOutOfRangeJobFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "farm.log")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []JobID
	for _, spec := range []JobSpec{
		{App: "waterSP", Kind: "explore", Strategy: "pct", PCTDepth: 1 << 60},
		{App: "fft", Runs: 1 << 50},
		{App: "fft", Threads: 1 << 40},
	} {
		id := st.NextID()
		if err := st.BeginJob(id, spec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, c := startTestDaemon(t, path, Options{RunWorkers: 2})
	for _, id := range ids {
		if job := waitDone(t, c, id); job.State != JobFailed || !strings.Contains(job.Error, "want") {
			t.Errorf("job %s (%+v): state %s, error %q; want failed with a range error", id, job.Spec, job.State, job.Error)
		}
	}
}
