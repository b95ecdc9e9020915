package fleet

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"instantcheck/internal/core"
	"instantcheck/internal/farm"
	"instantcheck/internal/replay"
)

// batchSize is the number of run records per results POST.
const batchSize = 4

// WorkerOptions configures one worker-node loop.
type WorkerOptions struct {
	// Name identifies the worker on leases and the coordinator's per-worker
	// gauges. Required.
	Name string
	// Coordinator is the daemon's base URL (the same server that serves the
	// farm API).
	Coordinator string
	// CacheDir holds fetched replay bundles, one file per digest. Required;
	// a populated cache survives worker restarts and is shared safely by
	// content addressing (a corrupt or foreign file fails digest
	// verification and is re-fetched).
	CacheDir string
	// PollInterval is the idle sleep between lease requests that found no
	// work (<= 0 selects 100ms).
	PollInterval time.Duration
	// RunLatency, when positive, sleeps this long before each replay run.
	// It exists for benchmarks and tests only: on a single machine it
	// emulates the per-run latency of a remote execution backend, which is
	// what lets a scaling benchmark exercise the coordinator's concurrency
	// without more physical CPUs.
	RunLatency time.Duration
	// Logf, when non-nil, receives one line per worker event.
	Logf func(format string, args ...any)
}

func (o WorkerOptions) withDefaults() (WorkerOptions, error) {
	if o.Name == "" {
		return o, fmt.Errorf("fleet: worker needs a name")
	}
	if o.Coordinator == "" {
		return o, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if o.CacheDir == "" {
		return o, fmt.Errorf("fleet: worker needs a bundle cache directory")
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// Worker is one fleet worker node: a pull loop leasing run-shards from a
// coordinator, replaying them from content-addressed bundles, and posting
// the hash records back.
type Worker struct {
	o WorkerOptions
	c *farm.Client
}

// NewWorker validates the options and builds a worker.
func NewWorker(o WorkerOptions) (*Worker, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Worker{o: o, c: farm.NewClient(o.Coordinator)}, nil
}

// Run is the worker loop: lease, execute, repeat, until ctx is canceled.
// Transient coordinator errors back off and retry — a worker outlives
// daemon restarts the same way farm.Client.Wait does.
func (w *Worker) Run(ctx context.Context) error {
	for {
		var resp leaseResponse
		err := w.c.Do(ctx, http.MethodPost, "/api/v1/fleet/lease", leaseRequest{Worker: w.o.Name}, &resp)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			w.o.Logf("fleet worker %s: lease request: %v", w.o.Name, err)
		case resp.Lease != nil:
			w.executeShard(ctx, resp.Lease)
			continue
		}
		if !sleepCtx(ctx, w.o.PollInterval) {
			return ctx.Err()
		}
	}
}

// executeShard runs one lease to completion: ensure the bundle, replay each
// run, post the records every batchSize runs, heartbeat throughout. The
// final batch carries done, and the cause when the shard cannot be executed
// from a verified bundle (it does not decode, the spec does not resolve, a
// run fails), which fails the job: every worker would fail it the same way.
// A batch that fails to post, or that the coordinator answers
// lease_ok=false, ends the shard at once.
func (w *Worker) executeShard(ctx context.Context, li *LeaseInfo) {
	raw, hit, err := w.ensureBundle(ctx, li.Digest)
	if err != nil {
		// A failed fetch or a digest mismatch may pass: leave the lease to
		// expire, and the shard re-dispatches.
		w.o.Logf("fleet worker %s: lease %s: bundle %s: %v", w.o.Name, li.LeaseID, li.Digest, err)
		return
	}
	fetch := "miss"
	if hit {
		fetch = "hit"
	}
	req := resultsRequest{LeaseID: li.LeaseID, Worker: w.o.Name, Job: li.Job, Fetch: fetch}
	runner, execErr := replayRunner(li, raw)

	// shardCtx dies with the lease: the heartbeat loop cancels it when the
	// coordinator reports the lease gone, which stops replay work whose
	// results nobody is waiting for (they would be dropped as duplicates).
	// A single run may outlast the lease TTL, hence the separate goroutine.
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeats(shardCtx, li, cancel)
	}()

	executed := 0
	for _, run := range li.Runs {
		if execErr != nil || err != nil || shardCtx.Err() != nil {
			break
		}
		if w.o.RunLatency > 0 && !sleepCtx(shardCtx, w.o.RunLatency) {
			break
		}
		res, rerr := runner.Replay(run)
		if rerr != nil {
			execErr = fmt.Errorf("run %d: %w", run, rerr)
			break
		}
		req.Records = append(req.Records, farm.NewRunRecord(run, res))
		executed++
		if len(req.Records) == batchSize {
			err = w.postResults(shardCtx, &req)
		}
	}
	if err == nil {
		req.Done = true
		if execErr != nil {
			req.Error = execErr.Error()
		}
		err = w.postResults(shardCtx, &req)
	}
	cancel()
	<-hbDone
	if execErr != nil {
		w.o.Logf("fleet worker %s: lease %s: %v", w.o.Name, li.LeaseID, execErr)
	}
	if err != nil && ctx.Err() == nil {
		w.o.Logf("fleet worker %s: lease %s: results: %v", w.o.Name, li.LeaseID, err)
	}
	w.o.Logf("fleet worker %s: lease %s done (%d/%d runs, bundle %s)",
		w.o.Name, li.LeaseID, executed, len(li.Runs), fetch)
}

// postResults posts one results batch and clears req for the next; Fetch
// goes on the shard's first batch only. A batch before the final one that
// the coordinator answers lease_ok=false is an error: the campaign moved on.
func (w *Worker) postResults(ctx context.Context, req *resultsRequest) error {
	var resp resultsResponse
	if err := w.c.Do(ctx, http.MethodPost, "/api/v1/fleet/results", req, &resp); err != nil {
		return err
	}
	req.Fetch, req.Records = "", req.Records[:0]
	if !resp.LeaseOK && !req.Done {
		return fmt.Errorf("lease %s lost (coordinator moved on)", req.LeaseID)
	}
	return nil
}

// replayRunner decodes a verified bundle and builds the runner that replays
// the lease's runs.
func replayRunner(li *LeaseInfo, raw []byte) (*core.Runner, error) {
	st, err := UnmarshalBundle(raw)
	if err != nil {
		return nil, fmt.Errorf("bundle %s: %w", li.Digest, err)
	}
	camp, build, err := li.Spec.Resolve()
	if err != nil {
		return nil, fmt.Errorf("bad spec: %w", err)
	}
	return camp.NewReplayRunner(build, st)
}

// heartbeats renews the lease at a third of its TTL until the shard ends;
// a rejected heartbeat cancels the shard.
func (w *Worker) heartbeats(ctx context.Context, li *LeaseInfo, cancel context.CancelFunc) {
	interval := time.Duration(li.TTLMillis) * time.Millisecond / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var resp heartbeatResponse
		err := w.c.Do(ctx, http.MethodPost, "/api/v1/fleet/heartbeat", heartbeatRequest{LeaseID: li.LeaseID, Worker: w.o.Name}, &resp)
		if err != nil {
			continue // transient: the lease survives missed beats up to TTL
		}
		if !resp.OK {
			w.o.Logf("fleet worker %s: lease %s expired under us, abandoning shard", w.o.Name, li.LeaseID)
			cancel()
			return
		}
	}
}

// ensureBundle returns the bundle bytes for a digest, from the disk cache
// when possible (reporting hit=true), else fetched from the coordinator,
// verified, and cached. Cache contents are never trusted blindly: a file
// whose bytes do not hash to its name is discarded and re-fetched.
func (w *Worker) ensureBundle(ctx context.Context, digest string) ([]byte, bool, error) {
	d, err := replay.ParseDigest(digest)
	if err != nil {
		return nil, false, err
	}
	path := filepath.Join(w.o.CacheDir, digest)
	if raw, err := os.ReadFile(path); err == nil && replay.DigestBytes(raw) == d {
		return raw, true, nil
	}
	blob, err := w.c.Text(ctx, "/api/v1/fleet/blob/"+digest)
	if err != nil {
		return nil, false, err
	}
	raw := []byte(blob)
	if replay.DigestBytes(raw) != d {
		return nil, false, fmt.Errorf("fleet: fetched bundle does not match digest %s", digest)
	}
	// Cache best-effort via temp-and-rename, so a crashed worker never
	// leaves a torn file under a valid digest name.
	if err := os.MkdirAll(w.o.CacheDir, 0o755); err == nil {
		tmp, err := os.CreateTemp(w.o.CacheDir, "fetch-*")
		if err == nil {
			_, werr := tmp.Write(raw)
			cerr := tmp.Close()
			if werr == nil && cerr == nil {
				os.Rename(tmp.Name(), path)
			} else {
				os.Remove(tmp.Name())
			}
		}
	}
	return raw, false, nil
}

// sleepCtx sleeps d unless ctx ends first; false means the context died.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
