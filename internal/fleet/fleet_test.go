package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"instantcheck/internal/core"
	"instantcheck/internal/farm"
	"instantcheck/internal/obs"
	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

var bg = context.Background()

// fleetSpec is a campaign sized for fast distributed smoke tests: small
// input, modest run count, fully specified seeds so every node resolves the
// identical campaign.
func fleetSpec(app string, runs int) farm.JobSpec {
	return farm.JobSpec{
		App:       app,
		Runs:      runs,
		Threads:   4,
		Seed:      50,
		InputSeed: 7,
		Small:     true,
	}
}

// recordedRunner resolves a spec and executes its recording run, yielding a
// runner in the state runJob hands to a dispatcher.
func recordedRunner(t testing.TB, spec farm.JobSpec) (core.Campaign, *core.Runner, []int) {
	t.Helper()
	camp, build, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := camp.NewRunner(build)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Record(); err != nil {
		t.Fatal(err)
	}
	camp = runner.Campaign()
	need := make([]int, 0, camp.Runs-1)
	for run := 1; run < camp.Runs; run++ {
		need = append(need, run)
	}
	return camp, runner, need
}

// TestBundleRoundTrip checks the content-addressed unit of the fleet: a
// recorded replay state marshals deterministically, round-trips, and the
// reconstructed state replays to the same hash vectors as the original.
// cholesky's recording logs allocations, so the bundle carries content.
func TestBundleRoundTrip(t *testing.T) {
	spec := fleetSpec("cholesky", 4)
	camp, runner, _ := recordedRunner(t, spec)
	st, err := runner.ReplayState()
	if err != nil {
		t.Fatal(err)
	}
	raw, digest, err := MarshalBundle(st)
	if err != nil {
		t.Fatal(err)
	}
	raw2, digest2, err := MarshalBundle(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) || digest != digest2 {
		t.Fatalf("bundle marshaling is not deterministic")
	}

	back, err := UnmarshalBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Program != st.Program {
		t.Fatalf("program = %q, want %q", back.Program, st.Program)
	}
	_, build, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := camp.NewReplayRunner(build, back)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < camp.Runs; run++ {
		want, err := runner.Replay(run)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Replay(run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Checkpoints, got.Checkpoints) {
			t.Fatalf("run %d: replay from round-tripped bundle diverges", run)
		}
	}

	// Truncations fail loudly, never as empty logs.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := UnmarshalBundle(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes unmarshaled cleanly", cut)
		}
	}
}

// TestCoordinatorProtocol drives the lease/results state machine directly
// (no HTTP, no Worker): claiming, idempotent append-back of a duplicated
// batch, and immediate requeue of a shard released incomplete.
func TestCoordinatorProtocol(t *testing.T) {
	spec := fleetSpec("radix", 9)
	camp, runner, need := recordedRunner(t, spec)

	c := NewCoordinator(CoordinatorOptions{ShardSize: 4, LeaseTTL: time.Minute})
	var mu sync.Mutex
	delivered := map[int]int{}
	deliver := func(run int, res *sim.Result) error {
		mu.Lock()
		defer mu.Unlock()
		delivered[run]++
		return nil
	}
	dispatchErr := make(chan error, 1)
	go func() {
		dispatchErr <- c.Dispatch(bg, "j000001", spec, runner, need, deliver)
	}()

	li := firstLease(t, c, "wA")
	if len(li.Runs) != 4 || li.Job != "j000001" {
		t.Fatalf("first lease = %+v", li)
	}

	records := make([]farm.RunRecord, 0, len(li.Runs))
	for _, run := range li.Runs {
		res, err := runner.Replay(run)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, farm.NewRunRecord(run, res))
	}
	req := &resultsRequest{LeaseID: li.LeaseID, Worker: "wA", Job: li.Job, Fetch: "miss", Records: records}
	accepted, ok := c.acceptResults(req, 100)
	if accepted != 4 || !ok {
		t.Fatalf("first batch: accepted=%d leaseOK=%v, want 4 true", accepted, ok)
	}
	// The identical batch again: a zombie re-post. Each record reaches
	// deliver once more, where the store compares it with the committed
	// one, and none is accepted.
	accepted, _ = c.acceptResults(req, 100)
	if accepted != 0 {
		t.Fatalf("duplicate batch accepted %d records", accepted)
	}
	if got := c.m.appendDuplicates.Value(); got != 4 {
		t.Fatalf("appendback duplicates = %d, want 4", got)
	}
	if got := c.m.appendRecords.Value(); got != 4 {
		t.Fatalf("appendback records = %d, want 4", got)
	}
	for _, run := range li.Runs {
		if n := delivered[run]; n != 2 {
			t.Fatalf("run %d delivered %d times, want the claim and the duplicate", run, n)
		}
	}

	// Second lease, released Done with only half its runs delivered — the
	// rest must requeue immediately, not wait for TTL expiry.
	li2 := c.nextLease("wA")
	if li2 == nil || len(li2.Runs) != 4 {
		t.Fatalf("second lease = %+v", li2)
	}
	partial := records[:0]
	for _, run := range li2.Runs[:2] {
		res, err := runner.Replay(run)
		if err != nil {
			t.Fatal(err)
		}
		partial = append(partial, farm.NewRunRecord(run, res))
	}
	accepted, ok = c.acceptResults(&resultsRequest{
		LeaseID: li2.LeaseID, Worker: "wA", Job: li2.Job, Records: partial, Done: true,
	}, 50)
	if accepted != 2 || ok {
		t.Fatalf("partial done batch: accepted=%d leaseOK=%v, want 2 false", accepted, ok)
	}
	if got := c.m.runsRequeued.Value(); got != 2 {
		t.Fatalf("runs requeued = %d, want 2", got)
	}

	// Drain everything that remains and the Dispatch must wake cleanly.
	for {
		li := c.nextLease("wB")
		if li == nil {
			break
		}
		var recs []farm.RunRecord
		for _, run := range li.Runs {
			res, err := runner.Replay(run)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, farm.NewRunRecord(run, res))
		}
		c.acceptResults(&resultsRequest{
			LeaseID: li.LeaseID, Worker: "wB", Job: li.Job, Records: recs, Done: true,
		}, 10)
	}
	select {
	case err := <-dispatchErr:
		if err != nil {
			t.Fatalf("dispatch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch never completed")
	}
	if len(delivered) != camp.Runs-1 {
		t.Fatalf("delivered %d distinct runs, want %d", len(delivered), camp.Runs-1)
	}
}

// firstLease waits for a dispatch to register its campaign, which it does
// asynchronously, and returns the campaign's first lease.
func firstLease(t *testing.T, c *Coordinator, worker string) *LeaseInfo {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if li := c.nextLease(worker); li != nil {
			return li
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted")
		}
	}
}

// TestDisagreeingDuplicateFailsJob: a record for an already claimed run is
// delivered, and the store it commits to compares it with the committed
// record, after the claim's own delivery has returned. An identical copy
// is counted and dropped; a copy with one SH bit flipped, from another
// worker, fails Dispatch with an error naming the run and that worker.
func TestDisagreeingDuplicateFailsJob(t *testing.T) {
	spec := fleetSpec("fft", 4)
	_, runner, need := recordedRunner(t, spec)
	store, err := farm.OpenStore(filepath.Join(t.TempDir(), "farm.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.BeginJob("j000001", spec); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	dispatchErr := make(chan error, 1)
	go func() {
		dispatchErr <- c.Dispatch(bg, "j000001", spec, runner, need, func(run int, res *sim.Result) error {
			return store.AppendRun("j000001", run, res)
		})
	}()
	li := firstLease(t, c, "wA")
	run := li.Runs[0]
	res, err := runner.Replay(run)
	if err != nil {
		t.Fatal(err)
	}
	rec := farm.NewRunRecord(run, res)
	post := func(worker string, rec farm.RunRecord) {
		c.acceptResults(&resultsRequest{LeaseID: li.LeaseID, Worker: worker, Job: li.Job, Records: []farm.RunRecord{rec}}, 0)
	}
	post("wA", rec)
	post("wA", rec)
	if got := c.m.appendDuplicates.Value(); got != 1 {
		t.Fatalf("appendback duplicates = %d after an identical copy, want 1", got)
	}
	select {
	case err := <-dispatchErr:
		t.Fatalf("Dispatch returned %v after an identical copy", err)
	default:
	}

	flipped := rec
	flipped.Checkpoints = append([]farm.CheckpointRecord(nil), rec.Checkpoints...)
	flipped.Checkpoints[0].SH ^= 1
	post("wB", flipped)
	select {
	case err := <-dispatchErr:
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("run %d", run)) || !strings.Contains(err.Error(), "worker wB") {
			t.Fatalf("Dispatch returned %v, want an error naming run %d and worker wB", err, run)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Dispatch did not fail on a disagreeing record")
	}
}

// TestUnexecutableShardFailsJob: when a worker cannot execute a shard from
// a bundle that matches its digest (it does not decode, the spec does not
// resolve, a replayed run fails), every worker would fail the same way,
// so the campaign fails with the worker's error within one lease TTL. The
// shard is neither left to expire nor re-queued.
func TestUnexecutableShardFailsJob(t *testing.T) {
	const ttl = 5 * time.Second
	for _, tc := range []struct {
		name string
		spec farm.JobSpec
		// bundle, when set, replaces the recorded bundle under its own digest.
		bundle []byte
		want   string
	}{
		{"undecodable bundle", fleetSpec("fft", 4), []byte("not a bundle"), "bad bundle"},
		{"unresolvable spec", fleetSpec("nosuchapp", 4), nil, "bad spec"},
		// Two allocations logged at one address: the first replayed run fails.
		{"failing replay", fleetSpec("cholesky", 4), []byte(`{"program":"cholesky","addr":[` +
			`{"site":"cholesky.taskNode","seq":0,"addr":268435456},` +
			`{"site":"cholesky.taskNode","seq":1,"addr":268435456}],"env":[]}`), "still live"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, runner, need := recordedRunner(t, fleetSpec("fft", 4))
			c := NewCoordinator(CoordinatorOptions{LeaseTTL: ttl, Logf: t.Logf})
			hs := httptest.NewServer(c.Handler())
			defer hs.Close()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			dispatchErr := make(chan error, 1)
			go func() {
				dispatchErr <- c.Dispatch(ctx, "j000001", tc.spec, runner, need,
					func(int, *sim.Result) error { return nil })
			}()
			// Dispatch registers the campaign asynchronously; swap the bundle
			// in before the worker starts.
			for {
				c.mu.Lock()
				camp := c.campaigns["j000001"]
				if camp != nil && tc.bundle != nil {
					delete(c.blobs, camp.digest)
					camp.digest = replay.DigestBytes(tc.bundle)
					c.blobs[camp.digest] = &blob{data: tc.bundle, refs: 1}
				}
				c.mu.Unlock()
				if camp != nil {
					break
				}
				time.Sleep(time.Millisecond)
			}

			w, err := NewWorker(WorkerOptions{Name: "w0", Coordinator: hs.URL, CacheDir: t.TempDir(),
				PollInterval: 5 * time.Millisecond, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			workerDone := make(chan struct{})
			go func() {
				defer close(workerDone)
				w.Run(ctx)
			}()
			defer func() {
				cancel()
				<-workerDone
			}()

			select {
			case err := <-dispatchErr:
				if err == nil || !strings.Contains(err.Error(), "worker w0") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Dispatch returned %v, want an error naming worker w0 and %q", err, tc.want)
				}
			case <-time.After(ttl):
				t.Fatalf("Dispatch still waiting after one lease TTL")
			}
			if got := c.m.shardsLeased.With("w0").Value(); got != 1 {
				t.Errorf("shards leased = %d, want 1", got)
			}
			if got := c.m.shardsExpired.Value() + c.m.runsRequeued.Value(); got != 0 {
				t.Errorf("%d leases expired or runs re-queued, want none", got)
			}
		})
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

// countingBody is a request body that counts the bytes read from it.
type countingBody struct {
	r io.Reader
	n int
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += n
	return n, err
}

// TestRequestBodyBounds: a worker-facing body one byte over its endpoint's
// bound gets 413, and a body without a declared length (chunked) gets 411
// with none of it read; the coordinator then serves a normal request on the
// same endpoint.
func TestRequestBodyBounds(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	hs := httptest.NewServer(c.Handler())
	defer hs.Close()
	for _, tc := range []struct {
		path   string
		limit  int64
		normal string
	}{
		{"/api/v1/fleet/lease", maxLeaseBody, `{"worker":"w0"}`},
		{"/api/v1/fleet/heartbeat", maxHeartbeatBody, `{"lease_id":"L000001","worker":"w0"}`},
		{"/api/v1/fleet/results", maxResultsBody, `{"lease_id":"L000001","worker":"w0","job":"j000001","records":[],"done":true}`},
	} {
		body := io.MultiReader(strings.NewReader("{"), io.LimitReader(blanks{}, tc.limit-1), strings.NewReader("}"))
		req, err := http.NewRequest(http.MethodPost, hs.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = tc.limit + 1
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: a body one byte over the bound got %s, want 413", tc.path, resp.Status)
		}
		// httptest.NewRequest declares no length for a reader of unknown size.
		chunked := &countingBody{r: strings.NewReader(tc.normal)}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, chunked))
		if rec.Code != http.StatusLengthRequired || chunked.n != 0 {
			t.Errorf("POST %s: a body without a declared length got %d after %d bytes read, want 411 after none",
				tc.path, rec.Code, chunked.n)
		}
		resp, err = http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.normal))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s: the normal request after it got %s", tc.path, resp.Status)
		}
	}
}

// TestLostLeaseEndsShard: a results batch the coordinator answers
// lease_ok=false ends the shard at once. The fake coordinator serves a real
// bundle for an 8-run shard and rejects the first batch of four; the worker
// must replay no further run and post no further batch.
func TestLostLeaseEndsShard(t *testing.T) {
	spec := fleetSpec("fft", 9)
	_, runner, need := recordedRunner(t, spec)
	st, err := runner.ReplayState()
	if err != nil {
		t.Fatal(err)
	}
	raw, digest, err := MarshalBundle(st)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	batches := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/fleet/blob/{digest}", func(w http.ResponseWriter, r *http.Request) {
		w.Write(raw)
	})
	mux.HandleFunc("POST /api/v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		farm.WriteJSON(w, http.StatusOK, heartbeatResponse{OK: true})
	})
	mux.HandleFunc("POST /api/v1/fleet/results", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		batches++
		mu.Unlock()
		farm.WriteJSON(w, http.StatusOK, resultsResponse{LeaseOK: false})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	var logs []string
	w, err := NewWorker(WorkerOptions{Name: "w0", Coordinator: hs.URL, CacheDir: t.TempDir(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
	if err != nil {
		t.Fatal(err)
	}
	w.executeShard(bg, &LeaseInfo{LeaseID: "L000001", Job: "j000001", Spec: spec, Runs: need,
		Digest: digest.String(), TTLMillis: time.Minute.Milliseconds()})
	mu.Lock()
	defer mu.Unlock()
	if log := strings.Join(logs, "\n"); !strings.Contains(log, "done (4/8 runs") {
		t.Errorf("the shard did not end after its first batch:\n%s", log)
	}
	if batches != 1 {
		t.Errorf("worker posted %d results batches, want 1", batches)
	}
}

// FuzzCoordinatorEndpoints posts arbitrary bodies to the lease, heartbeat
// and results endpoints, and asks the blob endpoint for arbitrary digests,
// on a coordinator with one registered campaign: job j000001, whose run 1 is
// claimed and runs 2 and 3 outstanding, so a results body can reach the
// claim and duplicate-delivery paths, and one naming another job the
// no-campaign path. chunked sends the body without a declared length.
// Every answer must be 200, 400, 404, 411 or 413, and a served bundle
// must declare its length.
func FuzzCoordinatorEndpoints(f *testing.F) {
	bundle := []byte(`{"program":"fft","addr":[],"env":[]}`)
	claimed := farm.RunRecord{Run: 1, Checkpoints: []farm.CheckpointRecord{{Ordinal: 0, Label: "end", SH: 0x1234}}}
	results, err := json.Marshal(resultsRequest{LeaseID: "L000001", Worker: "w1", Job: "j000001",
		Records: []farm.RunRecord{claimed, {Run: 2, Checkpoints: claimed.Checkpoints}}, Done: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), false, []byte(`{"worker":"w0"}`))
	f.Add(uint8(1), false, []byte(`{"lease_id":"L000001","worker":"w0"}`))
	f.Add(uint8(2), false, results)
	f.Add(uint8(3), false, []byte(replay.DigestBytes(bundle).String()))
	f.Fuzz(func(t *testing.T, endpoint uint8, chunked bool, body []byte) {
		c := NewCoordinator(CoordinatorOptions{})
		camp := &campaign{
			id:          "j000001",
			spec:        fleetSpec("fft", 4),
			digest:      replay.DigestBytes(bundle),
			shards:      [][]int{{2, 3}},
			outstanding: map[int]bool{2: true, 3: true},
			claimed:     map[int]bool{1: true},
			deliver:     func(int, *sim.Result) error { return nil },
			done:        make(chan struct{}),
		}
		c.campaigns[camp.id] = camp
		c.order = append(c.order, camp.id)
		c.blobs[camp.digest] = &blob{data: bundle, refs: 1}

		var req *http.Request
		switch endpoint % 4 {
		case 3:
			digest := url.PathEscape(string(body))
			if digest == "." || digest == ".." {
				return // the mux redirects a dot segment to its cleaned path
			}
			req = httptest.NewRequest(http.MethodGet, "/api/v1/fleet/blob/"+digest, nil)
		default:
			path := []string{"/api/v1/fleet/lease", "/api/v1/fleet/heartbeat", "/api/v1/fleet/results"}[endpoint%4]
			var r io.Reader = bytes.NewReader(body)
			if chunked {
				r = io.MultiReader(r)
			}
			req = httptest.NewRequest(http.MethodPost, path, r)
		}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusLengthRequired, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %s answered %d: %s", req.Method, req.URL.Path, rec.Code, rec.Body)
		}
		// A served bundle declares its length, so a worker reads it into
		// one buffer.
		if req.Method == http.MethodGet && rec.Code == http.StatusOK && rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("blob of %d bytes served with Content-Length %q", rec.Body.Len(), rec.Header().Get("Content-Length"))
		}
	})
}

// fleetDaemon is an in-process fleet: a farm daemon whose replay stage is a
// coordinator, plus the HTTP endpoint its workers pull from.
type fleetDaemon struct {
	srv   *farm.Server
	coord *Coordinator
	url   string

	cancel  context.CancelFunc
	workers sync.WaitGroup
}

func startFleetDaemon(t *testing.T, storePath string, copts CoordinatorOptions) *fleetDaemon {
	t.Helper()
	store, err := farm.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(copts)
	srv := farm.NewServer(store, farm.Options{Dispatcher: coord, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	hs := httptest.NewServer(coord.Handler())
	d := &fleetDaemon{srv: srv, coord: coord, url: hs.URL, cancel: cancel}
	t.Cleanup(func() {
		d.cancel()
		d.workers.Wait()
		hs.Close()
		srv.Wait()
		store.Close()
	})
	return d
}

// addWorker starts a worker loop against the daemon, returning its private
// cancel so tests can kill one worker without touching the rest.
func (d *fleetDaemon) addWorker(t *testing.T, ctx context.Context, o WorkerOptions) context.CancelFunc {
	t.Helper()
	o.Coordinator = d.url
	if o.PollInterval == 0 {
		o.PollInterval = 5 * time.Millisecond
	}
	if o.CacheDir == "" {
		o.CacheDir = t.TempDir()
	}
	w, err := NewWorker(o)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	d.workers.Add(1)
	go func() {
		defer d.workers.Done()
		w.Run(wctx)
	}()
	// Tie the worker to daemon teardown as well.
	go func() {
		<-ctx.Done()
		cancel()
	}()
	return cancel
}

func (d *fleetDaemon) waitJob(t *testing.T, id farm.JobID) *farm.Job {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		job := d.srv.Job(id)
		if job == nil {
			t.Fatalf("job %s vanished", id)
		}
		if job.State.Terminal() {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d runs)", id, job.State, job.RunsDone, job.RunsTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// singleNodeReport runs the same spec through a plain (local-dispatcher)
// daemon — the reference a fleet campaign must reproduce byte for byte.
func singleNodeReport(t *testing.T, spec farm.JobSpec) []byte {
	t.Helper()
	store, err := farm.OpenStore(filepath.Join(t.TempDir(), "single.log"))
	if err != nil {
		t.Fatal(err)
	}
	srv := farm.NewServer(store, farm.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	defer func() {
		cancel()
		srv.Wait()
		store.Close()
	}()
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for !srv.Job(job.ID).State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("single-node job stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep, err := srv.Report(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFleetMatchesSingleNode is the subsystem's north star: a campaign
// sharded across four worker processes produces a report byte-identical to
// the single-node daemon's. Its 7 replay runs split into shards of 5 and
// 2, so the first shard also sends a non-final results batch.
func TestFleetMatchesSingleNode(t *testing.T) {
	d := startFleetDaemon(t, filepath.Join(t.TempDir(), "fleet.log"),
		CoordinatorOptions{ShardSize: 5, LeaseTTL: 5 * time.Second, Logf: t.Logf})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	for _, name := range []string{"w0", "w1", "w2", "w3"} {
		d.addWorker(t, ctx, WorkerOptions{Name: name})
	}

	for _, app := range []string{"fft", "lu"} {
		spec := fleetSpec(app, 8)
		job, err := d.srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		job = d.waitJob(t, job.ID)
		if job.State != farm.JobDone || job.Error != "" {
			t.Fatalf("%s: fleet job finished as %s: %s", app, job.State, job.Error)
		}
		rep, err := d.srv.Report(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want := singleNodeReport(t, spec); !bytes.Equal(got, want) {
			t.Errorf("%s: fleet report differs from single-node:\nfleet  %s\nsingle %s", app, got, want)
		}
	}
	if got := d.coord.m.shardsCompleted.Value(); got == 0 {
		t.Error("no shards recorded as completed")
	}
}

// TestFleetExploreJobPassthrough checks the job-kind passthrough: an
// explore job submitted to a fleet-mode daemon runs to completion on the
// coordinator itself (the search is sequential, so nothing fans out to
// the workers), alongside a fleet-dispatched check job on the same queue.
func TestFleetExploreJobPassthrough(t *testing.T) {
	d := startFleetDaemon(t, filepath.Join(t.TempDir(), "fleet.log"),
		CoordinatorOptions{ShardSize: 3, LeaseTTL: 5 * time.Second, Logf: t.Logf})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	d.addWorker(t, ctx, WorkerOptions{Name: "w0"})

	spec := farm.JobSpec{
		App:            "waterSP",
		Kind:           "explore",
		Strategy:       "race-directed",
		Bug:            "atomicity",
		Runs:           40,
		Threads:        4,
		InputSeed:      1,
		SwitchInterval: 4000,
		RoundFP:        true,
		Small:          true,
	}
	job, err := d.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	job = d.waitJob(t, job.ID)
	if job.State != farm.JobDone || job.Error != "" {
		t.Fatalf("explore job on fleet daemon finished as %s: %s", job.State, job.Error)
	}
	rep, err := d.srv.Report(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explore == nil || !rep.Explore.Found {
		t.Fatalf("explore outcome = %+v", rep.Explore)
	}

	// The fleet still dispatches check jobs as before.
	check, err := d.srv.Submit(fleetSpec("fft", 6))
	if err != nil {
		t.Fatal(err)
	}
	check = d.waitJob(t, check.ID)
	if check.State != farm.JobDone || check.Error != "" {
		t.Fatalf("check job finished as %s: %s", check.State, check.Error)
	}
}

// TestFleetWorkerKillConvergence kills one worker mid-shard (its process
// context dies without any farewell to the coordinator — the in-process
// equivalent of SIGKILL) and checks that lease expiry re-dispatches the
// orphaned runs and the final report is still byte-identical to the
// single-node reference.
func TestFleetWorkerKillConvergence(t *testing.T) {
	d := startFleetDaemon(t, filepath.Join(t.TempDir(), "fleet.log"),
		CoordinatorOptions{ShardSize: 4, LeaseTTL: 300 * time.Millisecond, Logf: t.Logf})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()

	// The victim replays slowly, so it is guaranteed to still be mid-shard
	// when the kill lands.
	kill := d.addWorker(t, ctx, WorkerOptions{Name: "victim", RunLatency: 50 * time.Millisecond})

	spec := fleetSpec("radix", 17)
	job, err := d.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the victim to hold a lease, then kill it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		d.coord.mu.Lock()
		n := len(d.coord.leases)
		d.coord.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill()

	stopPolling := pollHashLog(t, d.srv.Handler(), job.ID)
	for _, name := range []string{"w1", "w2", "w3"} {
		d.addWorker(t, ctx, WorkerOptions{Name: name})
	}
	job = d.waitJob(t, job.ID)
	if n := stopPolling(); n == 0 {
		t.Error("no hash log was fetched while the job ran")
	}
	if job.State != farm.JobDone || job.Error != "" {
		t.Fatalf("fleet job finished as %s: %s", job.State, job.Error)
	}
	if got := d.coord.m.shardsExpired.Value(); got == 0 {
		t.Error("no lease expired despite the worker kill")
	}
	if got := d.coord.m.runsRequeued.Value(); got == 0 {
		t.Error("no runs were re-queued despite the worker kill")
	}

	rep, err := d.srv.Report(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if want := singleNodeReport(t, spec); !bytes.Equal(got, want) {
		t.Errorf("post-kill fleet report differs from single-node:\nfleet  %s\nsingle %s", got, want)
	}
}

// pollHashLog GETs a job's hash log from the farm's handler until the
// returned stop is called, which reports how many it fetched. Every answer
// must be 200 with a body of exactly its declared length that parses.
func pollHashLog(t *testing.T, h http.Handler, id farm.JobID) (stop func() int) {
	quit, fetched := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-quit:
				fetched <- n
				return
			case <-time.After(time.Millisecond):
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+string(id)+"/hashlog", nil))
			if declared := rec.Header().Get("Content-Length"); rec.Code != http.StatusOK || declared != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("hashlog mid-job: %d, Content-Length %s, %d body bytes", rec.Code, declared, rec.Body.Len())
			} else if _, err := farm.ParseHashLog(rec.Body); err != nil {
				t.Errorf("hashlog mid-job: %v", err)
			}
			n++
		}
	}()
	return func() int {
		close(quit)
		return <-fetched
	}
}

// TestBundleCacheHitMiss checks the content-addressed store economics: one
// worker fetches a campaign's bundle exactly once, later shards and later
// campaigns with the identical recording hit its disk cache.
func TestBundleCacheHitMiss(t *testing.T) {
	d := startFleetDaemon(t, filepath.Join(t.TempDir(), "fleet.log"),
		CoordinatorOptions{ShardSize: 3, LeaseTTL: 5 * time.Second})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	cache := t.TempDir()
	d.addWorker(t, ctx, WorkerOptions{Name: "solo", CacheDir: cache})

	spec := fleetSpec("fft", 8) // 7 replay runs -> 3 shards of <=3
	for i := 0; i < 2; i++ {
		job, err := d.srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if job = d.waitJob(t, job.ID); job.State != farm.JobDone {
			t.Fatalf("job %d finished as %s: %s", i, job.State, job.Error)
		}
	}

	misses, hits := d.coord.m.fetchMisses.Value(), d.coord.m.fetchHits.Value()
	if misses != 1 {
		t.Errorf("bundle fetch misses = %d, want exactly 1 (both campaigns share one digest)", misses)
	}
	if hits < 4 {
		t.Errorf("bundle fetch hits = %d, want >= 4", hits)
	}
	// The cache holds exactly the one bundle, named by its digest.
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(entries))
	}
	raw, err := os.ReadFile(filepath.Join(cache, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBundle(raw); err != nil {
		t.Fatalf("cached bundle corrupt: %v", err)
	}

	// A corrupted cache entry is detected by digest verification and
	// re-fetched, not trusted.
	if err := os.WriteFile(filepath.Join(cache, entries[0].Name()), []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	job, err := d.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job = d.waitJob(t, job.ID); job.State != farm.JobDone {
		t.Fatalf("post-corruption job finished as %s: %s", job.State, job.Error)
	}
	if got := d.coord.m.fetchMisses.Value(); got != misses+1 {
		t.Errorf("misses after cache corruption = %d, want %d", got, misses+1)
	}
}

// TestFleetMetricsGolden pins the checkfleet metric families — names and
// types are an interface consumed by dashboards and the stats command, so a
// rename must be a conscious golden update. It also checks the merged
// farm+fleet exposition lints cleanly, the same gate checkd applies at
// startup.
func TestFleetMetricsGolden(t *testing.T) {
	d := startFleetDaemon(t, filepath.Join(t.TempDir(), "fleet.log"),
		CoordinatorOptions{ShardSize: 3, LeaseTTL: 5 * time.Second})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	d.addWorker(t, ctx, WorkerOptions{Name: "w0"})
	job, err := d.srv.Submit(fleetSpec("fft", 6))
	if err != nil {
		t.Fatal(err)
	}
	if job = d.waitJob(t, job.ID); job.State != farm.JobDone {
		t.Fatalf("job finished as %s: %s", job.State, job.Error)
	}

	if err := obs.LintMerged(d.srv.Registry(), d.coord.Registry()); err != nil {
		t.Fatalf("merged farm+fleet registries do not lint: %v", err)
	}

	var buf bytes.Buffer
	if err := d.coord.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, line)
		}
	}
	got := strings.Join(families, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "fleet_metrics.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate by writing the following)\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("checkfleet metric families drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
