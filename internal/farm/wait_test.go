package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flakyJobServer serves /api/v1/jobs/{id} from a scripted sequence of
// responses: "fail" returns 503, "running"/"done" return a job in that
// state. The last entry repeats.
func flakyJobServer(t *testing.T, script []string) *Client {
	t.Helper()
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		if i >= len(script) {
			i = len(script) - 1
		}
		switch script[i] {
		case "fail":
			http.Error(w, `{"error":"daemon restarting"}`, http.StatusServiceUnavailable)
		case "running":
			WriteJSON(w, http.StatusOK, &Job{ID: "j000001", State: JobRunning})
		case "done":
			WriteJSON(w, http.StatusOK, &Job{ID: "j000001", State: JobDone})
		default:
			t.Errorf("bad script entry %q", script[i])
		}
	}))
	t.Cleanup(hs.Close)
	return NewClient(hs.URL)
}

// TestWaitRetriesTransientErrors is the client-restart regression test:
// polls that fail while a daemon restarts must not abort the wait. The old
// Wait returned the first poll error to the caller, so `instantcheck remote
// wait` died the moment the daemon bounced.
func TestWaitRetriesTransientErrors(t *testing.T) {
	// A burst of failures below the limit, recovery, another burst (the
	// success in between must reset the budget), then terminal.
	script := []string{
		"fail", "fail", "fail", "fail", "fail", "fail", "fail", // 7 < limit 8
		"running",
		"fail", "fail", "fail", "fail", "fail", "fail", "fail",
		"done",
	}
	c := flakyJobServer(t, script)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := c.Wait(ctx, "j000001", time.Millisecond)
	if err != nil {
		t.Fatalf("wait through transient failures: %v", err)
	}
	if job.State != JobDone {
		t.Fatalf("job state = %s", job.State)
	}
}

// TestWaitGivesUpAfterConsecutiveErrors: a daemon that stays down exhausts
// the error budget of 8 failures (about 0.25 s of backoff at a 1 ms poll)
// and Wait fails with the last error, not a hang.
func TestWaitGivesUpAfterConsecutiveErrors(t *testing.T) {
	c := flakyJobServer(t, []string{"fail"})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := c.Wait(ctx, "j000001", time.Millisecond)
	if err == nil {
		t.Fatal("wait against a dead daemon succeeded")
	}
	if !strings.Contains(err.Error(), "8 consecutive poll failures") || !strings.Contains(err.Error(), "daemon restarting") {
		t.Errorf("error does not explain the give-up: %v", err)
	}
}

// TestWaitRespectsContext: cancellation cuts through the backoff sleep.
func TestWaitRespectsContext(t *testing.T) {
	c := flakyJobServer(t, []string{"running"})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Wait(ctx, "j000001", 10*time.Second)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wait ignored the context for %v", elapsed)
	}
}

// TestWaitCancelCutsHangingPoll is the SIGINT regression test: the poll
// request itself carries the context, so canceling mid-request aborts a
// poll that would otherwise hang forever on an unresponsive daemon. The
// old client built requests without a context — Wait could only notice
// cancellation between polls, never during one.
func TestWaitCancelCutsHangingPoll(t *testing.T) {
	block := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block // hang every request until the test ends
	}))
	t.Cleanup(func() {
		close(block)
		hs.Close()
	})
	c := NewClient(hs.URL)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Wait(ctx, "j000001", time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("err = %v, want context cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v: the in-flight poll was not aborted", elapsed)
	}
}

// TestClientWaitSurvivesDaemonRestart is the end-to-end acceptance
// scenario: checkd is killed mid-campaign and restarted on the same
// address and store while a Client.Wait is in flight. The waiter must ride
// out the restart, the resumed campaign must finish, and the final report
// must be byte-identical to an uninterrupted campaign's.
func TestClientWaitSurvivesDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	spec := smokeSpec("radix", "crc64")

	// Reference: an uninterrupted daemon's report.
	_, cref := startTestDaemon(t, filepath.Join(dir, "ref.log"), Options{RunWorkers: 4})
	refJob, err := cref.Submit(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, cref, refJob.ID).State; st != JobDone {
		t.Fatalf("reference job state %s", st)
	}
	wantRep, err := cref.Report(bg, refJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantRep)
	if err != nil {
		t.Fatal(err)
	}

	// Daemon 1 on a real TCP listener (httptest can't rebind its address).
	storePath := filepath.Join(dir, "farm.log")
	store1, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(store1, Options{RunWorkers: 1, JobWorkers: 1})
	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1.Start(ctx1)
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	hs1 := &http.Server{Handler: srv1.Handler()}
	go hs1.Serve(ln1)

	c := NewClient("http://" + addr)
	job, err := c.Submit(bg, spec)
	if err != nil {
		t.Fatal(err)
	}

	// The waiter under test, in flight across the restart.
	type waitResult struct {
		job *Job
		err error
	}
	waited := make(chan waitResult, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		j, err := c.Wait(ctx, job.ID, 20*time.Millisecond)
		waited <- waitResult{j, err}
	}()

	// Kill daemon 1 once at least one run is durably committed, so the
	// restart genuinely resumes mid-campaign.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if jl := store1.Job(job.ID); jl != nil && len(jl.CompletedRuns()) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no run committed before kill deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	hs1.Close() // drops the listener and every open connection
	cancel1()
	srv1.Wait()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}
	committed := len(func() []int {
		s, _ := OpenStore(storePath)
		defer s.Close()
		return s.Job(job.ID).CompletedRuns()
	}())

	// Let the waiter experience the dead daemon at least once.
	time.Sleep(100 * time.Millisecond)

	// Daemon 2: same store, same address.
	store2, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(store2, Options{RunWorkers: 4})
	srv2.Resume()
	ctx2, cancel2 := context.WithCancel(context.Background())
	srv2.Start(ctx2)
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 500 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	hs2 := &http.Server{Handler: srv2.Handler()}
	go hs2.Serve(ln2)
	t.Cleanup(func() {
		hs2.Close()
		cancel2()
		srv2.Wait()
		store2.Close()
	})

	res := <-waited
	if res.err != nil {
		t.Fatalf("waiter did not survive the restart: %v", res.err)
	}
	if res.job.State != JobDone || res.job.Error != "" {
		t.Fatalf("resumed job %s: %s", res.job.State, res.job.Error)
	}
	gotRep, err := c.Report(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(gotRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("report after restart differs from uninterrupted run (killed with %d runs committed):\nwant %s\ngot  %s",
			committed, want, got)
	}
}
