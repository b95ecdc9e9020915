package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instantcheck/internal/farm"
)

// statsDaemon fakes the two endpoints remote stats consumes.
func statsDaemon(t *testing.T, metrics string) *farm.Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok","uptime_seconds":75.4,"jobs":2,"running":1,"queue_depth":1,"store_path":"/var/farm.log"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, metrics)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return farm.NewClient(hs.URL)
}

const statsExposition = `# HELP checkfarm_jobs_submitted_total Campaigns accepted.
# TYPE checkfarm_jobs_submitted_total counter
checkfarm_jobs_submitted_total 2
# TYPE instantcheck_stores_total counter
instantcheck_stores_total{scheme="HW-InstantCheck_Inc"} 4228
# TYPE instantcheck_traverse_dirty_pages_total counter
instantcheck_traverse_dirty_pages_total 150
# TYPE instantcheck_traverse_live_pages_total counter
instantcheck_traverse_live_pages_total 4000
# TYPE instantcheck_storebuffer_flushes_total counter
instantcheck_storebuffer_flushes_total{scheme="HW-InstantCheck_Inc"} 40
instantcheck_storebuffer_flushes_total{scheme="SW-InstantCheck_Inc"} 10
# TYPE instantcheck_storebuffer_drained_words_total counter
instantcheck_storebuffer_drained_words_total{scheme="HW-InstantCheck_Inc"} 800
instantcheck_storebuffer_drained_words_total{scheme="SW-InstantCheck_Inc"} 200
# TYPE instantcheck_storebuffer_coalesced_total counter
instantcheck_storebuffer_coalesced_total{scheme="HW-InstantCheck_Inc"} 2400
instantcheck_storebuffer_coalesced_total{scheme="SW-InstantCheck_Inc"} 600
# TYPE checkfarm_detection_runs_total counter
checkfarm_detection_runs_total 2
# TYPE instantcheck_detection_events_total counter
instantcheck_detection_events_total{kind="read"} 5200
instantcheck_detection_events_total{kind="write"} 1800
# TYPE checkfarm_run_duration_seconds histogram
checkfarm_run_duration_seconds_bucket{le="0.01"} 3
checkfarm_run_duration_seconds_bucket{le="+Inf"} 4
checkfarm_run_duration_seconds_sum 1
checkfarm_run_duration_seconds_count 4
`

// fleetExposition extends statsExposition with a fleet-mode daemon's
// checkfleet families.
const fleetExposition = statsExposition + `# TYPE checkfleet_workers_live gauge
checkfleet_workers_live 3
# TYPE checkfleet_shards_leased_total counter
checkfleet_shards_leased_total{worker="w0"} 4
checkfleet_shards_leased_total{worker="w1"} 3
# TYPE checkfleet_shards_completed_total counter
checkfleet_shards_completed_total 6
# TYPE checkfleet_shards_expired_total counter
checkfleet_shards_expired_total 1
# TYPE checkfleet_runs_requeued_total counter
checkfleet_runs_requeued_total 5
`

// exploreExposition carries two strategies' explore series, one of which
// fired directed preemptions, and a strategy that never ran.
const exploreExposition = `# TYPE checkfarm_explore_runs_total counter
checkfarm_explore_runs_total{strategy="race-directed"} 12
checkfarm_explore_runs_total{strategy="uniform"} 40
checkfarm_explore_runs_total{strategy="pct"} 0
# TYPE checkfarm_explore_divergences_total counter
checkfarm_explore_divergences_total{strategy="race-directed"} 2
checkfarm_explore_divergences_total{strategy="uniform"} 0
# TYPE checkfarm_explore_distinct_outcomes_total counter
checkfarm_explore_distinct_outcomes_total{strategy="race-directed"} 7
checkfarm_explore_distinct_outcomes_total{strategy="uniform"} 1
# TYPE checkfarm_explore_hint_preemptions_total counter
checkfarm_explore_hint_preemptions_total{strategy="race-directed"} 9
checkfarm_explore_hint_preemptions_total{strategy="uniform"} 0
`

// TestRemoteStatsRendering drives the stats verb against a fake daemon and
// checks the health header, counter lines, label rendering and histogram
// folding.
func TestRemoteStatsRendering(t *testing.T) {
	c := statsDaemon(t, statsExposition)
	var out bytes.Buffer
	if err := remoteStats(context.Background(), c, nil, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"ok  up 1m15s  2 job(s), 1 running, 1 queued",
		"store /var/farm.log",
		"checkfarm_jobs_submitted_total",
		"instantcheck_stores_total{scheme=HW-InstantCheck_Inc}",
		"4228",
		"checkfarm_run_duration_seconds", "count 4, mean 0.25",
		"traverse delta: 150 of 4000 live pages rehashed (3.8% dirty)",
		"store buffer: 3000 stores coalesced into 1000 drained words over 50 flushes (75.0% absorbed)",
		"detection: 2 run(s), 5200 read / 1800 write events observed",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stats output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "_bucket") {
		t.Errorf("rendered output leaks histogram buckets:\n%s", text)
	}

	// -raw dumps the exposition untouched.
	out.Reset()
	if err := remoteStats(context.Background(), c, []string{"-raw"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != statsExposition {
		t.Errorf("-raw output differs from served exposition:\n%s", out.String())
	}
}

// TestRemoteStatsFleetLine: a fleet-mode daemon's exposition adds the fleet
// summary line (per-worker lease counters folded to a total); a non-fleet
// daemon's never shows it.
func TestRemoteStatsFleetLine(t *testing.T) {
	c := statsDaemon(t, fleetExposition)
	var out bytes.Buffer
	if err := remoteStats(context.Background(), c, nil, &out); err != nil {
		t.Fatal(err)
	}
	want := "fleet: 3 worker(s) live, shards 7 leased / 6 completed / 1 expired, 5 run(s) re-queued"
	if !strings.Contains(out.String(), want) {
		t.Errorf("stats output missing %q:\n%s", want, out.String())
	}

	out.Reset()
	c = statsDaemon(t, statsExposition)
	if err := remoteStats(context.Background(), c, nil, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "fleet:") {
		t.Errorf("non-fleet daemon rendered a fleet line:\n%s", out.String())
	}
}

// TestRemoteStatsRejectsMalformed: a daemon serving a broken exposition is
// reported as such instead of rendered half-parsed.
func TestRemoteStatsRejectsMalformed(t *testing.T) {
	c := statsDaemon(t, "what even is this{")
	if err := remoteStats(context.Background(), c, nil, io.Discard); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("malformed exposition accepted: %v", err)
	}
}

// liveDaemon serves a real farm.Server over a store in a temporary
// directory, runs each spec on it to completion and returns a client and
// the finished jobs' ids.
func liveDaemon(t *testing.T, specs ...farm.JobSpec) (context.Context, *farm.Client, []farm.JobID) {
	t.Helper()
	store, err := farm.OpenStore(filepath.Join(t.TempDir(), "farm.log"))
	if err != nil {
		t.Fatal(err)
	}
	srv := farm.NewServer(store, farm.Options{RunWorkers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	srv.Start(ctx)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		srv.Wait()
		store.Close()
	})
	c := farm.NewClient(hs.URL)

	var ids []farm.JobID
	for _, spec := range specs {
		job, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if job, err = c.Wait(ctx, job.ID, 10*time.Millisecond); err != nil || job.State != farm.JobDone {
			t.Fatalf("%s %s job: %v %+v", spec.App, spec.Kind, err, job)
		}
		ids = append(ids, job.ID)
	}
	return ctx, c, ids
}

// TestRemoteStatsLiveDaemon renders stats from a real farm.Server's
// /metrics, so renaming a metric family a summary line reads fails here
// instead of silently dropping the line.
func TestRemoteStatsLiveDaemon(t *testing.T) {
	ctx, c, _ := liveDaemon(t,
		farm.JobSpec{App: "fft", Scheme: "hwinc", Runs: 3, Threads: 4, Small: true},
		farm.JobSpec{App: "fft", Scheme: "swtr", Runs: 3, Threads: 4, Small: true},
		farm.JobSpec{App: "waterSP", Kind: "explore", Strategy: "race-directed", Bug: "atomicity",
			Runs: 4, Threads: 4, InputSeed: 1, RoundFP: true, Small: true},
	)

	var out bytes.Buffer
	if err := remoteStats(ctx, c, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"traverse delta:", "store buffer:", "detection:", "explore[race-directed]:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRemoteStatsGolden pins the whole rendering byte for byte — header,
// every summary line and the aligned sample listing — over the stats,
// fleet and explore fixtures. The daemon's httptest URL is replaced by a
// fixed placeholder. The golden regenerates with:
// go test ./cmd/instantcheck -run RemoteStatsGolden -update
func TestRemoteStatsGolden(t *testing.T) {
	c := statsDaemon(t, fleetExposition+exploreExposition)
	var out bytes.Buffer
	if err := remoteStats(context.Background(), c, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(out.String(), c.BaseURL, "http://checkd")

	golden := filepath.Join("testdata", "remote_stats.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("remote stats drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
