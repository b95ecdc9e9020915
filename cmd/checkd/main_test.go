package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instantcheck/internal/farm"
)

// TestSlowClientTimedOut is the slow-client regression test: the daemon's
// HTTP server used to be built with no timeouts at all, so a client that
// opened a connection and stalled mid-request held it forever. With
// ReadTimeout set, the server must drop the connection.
func TestSlowClientTimedOut(t *testing.T) {
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	hs := newHTTPServer("", api, nil, nil, 150*time.Millisecond, time.Second, time.Second, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request, then silence: the read deadline must fire.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stuck\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	n, err := conn.Read(make([]byte, 1))
	if err == nil || n != 0 {
		t.Fatalf("server answered a half-written request (n=%d err=%v)", n, err)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the stalled connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("stalled connection held for %v, want ~ReadTimeout", elapsed)
	}

	// A well-behaved client on the same server is unaffected.
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthy request got HTTP %d", resp.StatusCode)
	}
}

// TestPprofOptIn: the profiling endpoints exist only behind the -pprof
// flag; by default the daemon exposes nothing under /debug/.
func TestPprofOptIn(t *testing.T) {
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	})
	for _, on := range []bool{false, true} {
		hs := newHTTPServer("", api, nil, nil, time.Second, time.Second, time.Second, on)
		ts := httptest.NewServer(hs.Handler)
		resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		wantOK := on
		if gotOK := resp.StatusCode == http.StatusOK; gotOK != wantOK {
			t.Errorf("pprof=%v: /debug/pprof/cmdline -> HTTP %d", on, resp.StatusCode)
		}
	}
}

// TestOutOfRangeSpecsRejected: job specs whose sizes once crashed the job
// worker — and, persisted before they ran, every restart after it — get
// HTTP 400 at submit, and the daemon keeps serving: a valid job submitted
// afterwards runs to completion.
func TestOutOfRangeSpecsRejected(t *testing.T) {
	store, err := farm.OpenStore(filepath.Join(t.TempDir(), "farm.log"))
	if err != nil {
		t.Fatal(err)
	}
	srv := farm.NewServer(store, farm.Options{RunWorkers: 2})
	srv.Resume()
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	hs := newHTTPServer("", srv.Handler(), nil, nil, time.Second, 10*time.Second, time.Second, false)
	ts := httptest.NewServer(hs.Handler)
	defer func() {
		ts.Close()
		cancel()
		srv.Wait()
		store.Close()
	}()

	for _, body := range []string{
		`{"app":"waterSP","kind":"explore","strategy":"pct","pct_depth":1152921504606846976}`,
		`{"app":"waterSP","kind":"explore","strategy":"pct","pct_depth":-1}`,
		`{"app":"fft","runs":1125899906842624}`,
		`{"app":"fft","threads":1099511627776}`,
		`{"app":"fft","switch_interval":4611686018427387904}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}

	c := farm.NewClient(ts.URL)
	job, err := c.Submit(ctx, farm.JobSpec{App: "fft", Runs: 2, Threads: 2, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, stop := context.WithTimeout(ctx, time.Minute)
	defer stop()
	done, err := c.Wait(waitCtx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != farm.JobDone {
		t.Errorf("valid job after the rejections: %s %s", done.State, done.Error)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Errorf("%d jobs stored, want only the valid one", len(jobs))
	}
}
