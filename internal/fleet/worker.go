package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"instantcheck/internal/core"
	"instantcheck/internal/farm"
	"instantcheck/internal/replay"
)

const (
	// batchSize is the number of run records per results POST.
	batchSize = 4
	// maxInFlight bounds the run records buffered between the replay
	// executor and the sender, in batches: when a slow coordinator leaves
	// that many batches unacknowledged, replay execution blocks —
	// backpressure instead of unbounded buffering.
	maxInFlight = 2
)

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
// coordinator, replaying them from content-addressed bundles, and streaming
// the hash records back.
type Worker struct {
	o  WorkerOptions
	hc *http.Client
}

// NewWorker validates the options and builds a worker.
func NewWorker(o WorkerOptions) (*Worker, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Worker{o: o, hc: &http.Client{}}, nil
}

// Run is the worker loop: lease, execute, repeat, until ctx is canceled.
// Transient coordinator errors back off and retry — a worker outlives
// daemon restarts the same way farm.Client.Wait does.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		li, err := w.requestLease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.o.Logf("fleet worker %s: lease request: %v", w.o.Name, err)
			if !sleepCtx(ctx, w.o.PollInterval) {
				return ctx.Err()
			}
			continue
		}
		if li == nil {
			if !sleepCtx(ctx, w.o.PollInterval) {
				return ctx.Err()
			}
			continue
		}
		w.executeShard(ctx, li)
	}
}

// executeShard runs one lease to completion: ensure the bundle, replay each
// run, stream batches, heartbeat throughout. A shard the worker cannot
// execute from a verified bundle (it does not decode, the spec does not
// resolve, a run fails) ends with the cause on the final results batch:
// every worker would fail it the same way, so the coordinator fails the job
// instead of re-dispatching the shard.
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
	runner, execErr := replayRunner(li, raw)

	// shardCtx dies with the lease: the heartbeat loop cancels it when the
	// coordinator reports the lease gone, which stops replay work whose
	// results nobody is waiting for (they would be dropped as duplicates).
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeats(shardCtx, li, cancel)
	}()

	// The record channel is the backpressure bound: the replay executor
	// blocks once maxInFlight batches' worth of records await the sender.
	records := make(chan farm.RunRecord, batchSize*maxInFlight)
	senderDone := make(chan error, 1)
	go func() {
		senderDone <- w.sendResults(shardCtx, li, fetch, records, &execErr)
	}()

	executed := 0
	for _, run := range li.Runs {
		if execErr != nil || shardCtx.Err() != nil {
			break
		}
		if w.o.RunLatency > 0 && !sleepCtx(shardCtx, w.o.RunLatency) {
			break
		}
		res, err := runner.Replay(run)
		if err != nil {
			execErr = fmt.Errorf("run %d: %w", run, err)
			break
		}
		select {
		case records <- farm.NewRunRecord(run, res):
			executed++
		case <-shardCtx.Done():
		}
		if shardCtx.Err() != nil {
			break
		}
	}
	close(records) // orders every write of execErr before the sender reads it
	err = <-senderDone
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

// sendResults drains the record channel into batched POSTs, the final batch
// flagged Done so the coordinator releases the lease promptly, and carrying
// *execErr, which it reads once records is closed. A batch the coordinator
// answers with lease_ok=false aborts the shard.
func (w *Worker) sendResults(ctx context.Context, li *LeaseInfo, fetch string, records <-chan farm.RunRecord, execErr *error) error {
	first := true
	var batch []farm.RunRecord
	flush := func(done bool) error {
		if len(batch) == 0 && !done {
			return nil
		}
		req := resultsRequest{
			LeaseID: li.LeaseID,
			Worker:  w.o.Name,
			Job:     li.Job,
			Records: batch,
			Done:    done,
		}
		if first {
			req.Fetch = fetch
			first = false
		}
		if done && *execErr != nil {
			req.Error = (*execErr).Error()
		}
		batch = batch[:0]
		var resp resultsResponse
		if err := w.post(ctx, "/api/v1/fleet/results", req, &resp); err != nil {
			return err
		}
		if !resp.LeaseOK && !done {
			return fmt.Errorf("lease %s lost (coordinator moved on)", li.LeaseID)
		}
		return nil
	}
	for rec := range records {
		batch = append(batch, rec)
		if len(batch) >= batchSize {
			if err := flush(false); err != nil {
				// Drain so the executor never blocks on a dead sender.
				for range records {
				}
				return err
			}
		}
	}
	return flush(true)
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
		err := w.post(ctx, "/api/v1/fleet/heartbeat", heartbeatRequest{LeaseID: li.LeaseID, Worker: w.o.Name}, &resp)
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

// requestLease asks for a shard; nil without error means no work.
func (w *Worker) requestLease(ctx context.Context) (*LeaseInfo, error) {
	var resp leaseResponse
	if err := w.post(ctx, "/api/v1/fleet/lease", leaseRequest{Worker: w.o.Name}, &resp); err != nil {
		return nil, err
	}
	return resp.Lease, nil
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
	raw, err := w.fetchBlob(ctx, digest)
	if err != nil {
		return nil, false, err
	}
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

// fetchBlob downloads a bundle.
func (w *Worker) fetchBlob(ctx context.Context, digest string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.o.Coordinator+"/api/v1/fleet/blob/"+digest, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: blob %s: HTTP %d", digest, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// post sends one JSON request and decodes the JSON response.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.o.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
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
