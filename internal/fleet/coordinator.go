package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"instantcheck/internal/core"
	"instantcheck/internal/farm"
	"instantcheck/internal/obs"
	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// CoordinatorOptions configures a fleet coordinator.
type CoordinatorOptions struct {
	// ShardSize is the number of runs per lease (<= 0 selects 8). Smaller
	// shards rebalance faster after a worker dies; larger shards amortize
	// the per-lease HTTP round trips.
	ShardSize int
	// LeaseTTL is how long a lease survives without a heartbeat (<= 0
	// selects 10s). Expired leases return their undelivered runs to the
	// shard queue.
	LeaseTTL time.Duration
	// Logf, when non-nil, receives one line per fleet event.
	Logf func(format string, args ...any)
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.ShardSize <= 0 {
		o.ShardSize = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// campaign is one job's distributed replay stage, alive for the duration of
// a Dispatch call.
type campaign struct {
	id     farm.JobID
	spec   farm.JobSpec
	digest replay.Digest
	// shards queues run-index groups awaiting a lease; expiry appends the
	// undelivered remainder of a dead lease back here.
	shards [][]int
	// outstanding holds run indices not yet claimed by an accepted result.
	outstanding map[int]bool
	// claimed holds the claimed run indices. A later record for a claimed
	// run is delivered too: the farm's store compares it with the
	// committed record, and a difference fails the campaign.
	claimed map[int]bool
	// inflight counts deliveries to the farm that have not returned yet,
	// of claims and of later records alike; the campaign completes only
	// when both outstanding and inflight reach zero, so Dispatch never
	// wakes before every accepted result has hit the store and every
	// duplicate has been compared.
	inflight int
	deliver  func(run int, res *sim.Result) error
	failed   error
	closed   bool
	done     chan struct{}
}

// lease is one shard granted to one worker, kept alive by heartbeats.
type lease struct {
	id       string
	worker   string
	job      farm.JobID
	runs     []int
	deadline time.Time
}

// blob is one content-addressed bundle, refcounted across the campaigns
// that share it (identical recordings have identical digests).
type blob struct {
	data []byte
	refs int
}

// Coordinator implements farm.Dispatcher by leasing run-shards to pull-based
// worker processes over HTTP. Plug it into farm.Options.Dispatcher and mount
// Handler() next to the farm's API.
type Coordinator struct {
	opts CoordinatorOptions
	reg  *obs.Registry
	m    *metrics

	mu        sync.Mutex
	campaigns map[farm.JobID]*campaign
	order     []farm.JobID
	leases    map[string]*lease
	blobs     map[replay.Digest]*blob
	// workers maps worker name to last contact time, feeding the liveness
	// gauges.
	workers  map[string]time.Time
	leaseSeq int
}

// NewCoordinator builds a coordinator and registers its metric families.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		opts:      opts.withDefaults(),
		reg:       obs.NewRegistry(),
		campaigns: make(map[farm.JobID]*campaign),
		leases:    make(map[string]*lease),
		blobs:     make(map[replay.Digest]*blob),
		workers:   make(map[string]time.Time),
	}
	c.m = newMetrics(c.reg)
	c.reg.GaugeFunc("checkfleet_workers_live",
		"Workers that have reported in within the liveness window.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.liveWorkersLocked(time.Now()))
		})
	c.reg.GaugeFunc("checkfleet_leases_active",
		"Shard leases currently granted and unexpired.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.leases))
		})
	c.reg.GaugeFunc("checkfleet_campaigns_active",
		"Campaigns with a replay stage in flight.", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.campaigns))
		})
	return c
}

// Registry returns the registry holding the checkfleet families — merge it
// with the farm's via obs.MergedHandler (gated by obs.LintMerged).
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// live reports whether a worker last heard from at last still counts as
// live at now: within three lease TTLs.
func (c *Coordinator) live(last, now time.Time) bool {
	return now.Sub(last) <= 3*c.opts.LeaseTTL
}

// liveWorkersLocked counts workers inside the liveness window.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, last := range c.workers {
		if c.live(last, now) {
			n++
		}
	}
	return n
}

// touchWorkerLocked records contact from a worker, registering its liveness
// series on first sight.
func (c *Coordinator) touchWorkerLocked(worker string, now time.Time) {
	if worker == "" {
		return
	}
	if _, known := c.workers[worker]; !known {
		w := worker
		c.m.workerLive.Func(w, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.live(c.workers[w], time.Now()) {
				return 1
			}
			return 0
		})
	}
	c.workers[worker] = now
}

// Dispatch implements farm.Dispatcher: it publishes the recorded replay
// bundle, shards the outstanding runs, and blocks until workers have
// delivered every run (or the context dies / a delivery fails). The farm's
// runJob calls this after the recording run, holding the deliver closure
// that persists and folds each result.
func (c *Coordinator) Dispatch(ctx context.Context, id farm.JobID, spec farm.JobSpec, runner *core.Runner, need []int,
	deliver func(run int, res *sim.Result) error) error {

	st, err := runner.ReplayState()
	if err != nil {
		return err
	}
	raw, digest, err := MarshalBundle(st)
	if err != nil {
		return err
	}
	camp := &campaign{
		id:          id,
		spec:        spec,
		digest:      digest,
		shards:      farm.PlanShards(need, c.opts.ShardSize),
		outstanding: make(map[int]bool, len(need)),
		claimed:     make(map[int]bool, len(need)),
		deliver:     deliver,
		done:        make(chan struct{}),
	}
	for _, run := range need {
		camp.outstanding[run] = true
	}
	nshards := len(camp.shards) // read before publication; workers pop shards immediately

	c.mu.Lock()
	if _, dup := c.campaigns[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("fleet: job %s already dispatched", id)
	}
	if b := c.blobs[digest]; b != nil {
		b.refs++
	} else {
		c.blobs[digest] = &blob{data: raw, refs: 1}
	}
	c.campaigns[id] = camp
	c.order = append(c.order, id)
	c.mu.Unlock()
	c.opts.Logf("fleet: job %s: %d runs in %d shards, bundle %s (%d bytes)",
		id, len(need), nshards, digest, len(raw))
	defer c.finish(camp)

	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-camp.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return camp.failed
	}
}

// finish retires a campaign: its entry, its leases and (when the refcount
// drops to zero) its bundle all go away. Results still in flight from
// zombie workers will be counted as duplicates and dropped.
func (c *Coordinator) finish(camp *campaign) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.campaigns, camp.id)
	for i, id := range c.order {
		if id == camp.id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for lid, l := range c.leases {
		if l.job == camp.id {
			delete(c.leases, lid)
		}
	}
	if b := c.blobs[camp.digest]; b != nil {
		if b.refs--; b.refs <= 0 {
			delete(c.blobs, camp.digest)
		}
	}
}

// failLocked marks a campaign failed and wakes its Dispatch. Caller holds
// c.mu.
func (camp *campaign) failLocked(err error) {
	if camp.failed == nil {
		camp.failed = err
	}
	if !camp.closed {
		camp.closed = true
		close(camp.done)
	}
}

// expireLocked reaps leases past their deadline, returning their
// undelivered runs to the shard queue. Caller holds c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for lid, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, lid)
		c.m.shardsExpired.Inc()
		camp := c.campaigns[l.job]
		if camp == nil {
			continue
		}
		c.requeueLocked(camp, l)
	}
}

// requeueLocked puts a dead lease's undelivered runs back on the shard
// queue. Caller holds c.mu.
func (c *Coordinator) requeueLocked(camp *campaign, l *lease) {
	var left []int
	for _, run := range l.runs {
		if camp.outstanding[run] {
			left = append(left, run)
		}
	}
	if len(left) == 0 {
		return
	}
	camp.shards = append(camp.shards, left)
	c.m.runsRequeued.Add(uint64(len(left)))
	c.opts.Logf("fleet: lease %s (worker %s) lost %d run(s) of job %s, re-queued",
		l.id, l.worker, len(left), camp.id)
}

// nextLease grants the next pending shard, nil when no work is waiting.
func (c *Coordinator) nextLease(worker string) *LeaseInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker, now)
	c.expireLocked(now)
	for _, id := range c.order {
		camp := c.campaigns[id]
		if camp.failed != nil {
			continue
		}
		for len(camp.shards) > 0 {
			shard := camp.shards[0]
			camp.shards = camp.shards[1:]
			// Drop runs a straggler delivered while the shard waited.
			var runs []int
			for _, run := range shard {
				if camp.outstanding[run] {
					runs = append(runs, run)
				}
			}
			if len(runs) == 0 {
				continue
			}
			c.leaseSeq++
			l := &lease{
				id:       fmt.Sprintf("L%06d", c.leaseSeq),
				worker:   worker,
				job:      id,
				runs:     runs,
				deadline: now.Add(c.opts.LeaseTTL),
			}
			c.leases[l.id] = l
			c.m.shardsLeased.With(worker).Inc()
			c.opts.Logf("fleet: lease %s: job %s runs %v -> worker %s", l.id, id, runs, worker)
			return &LeaseInfo{
				LeaseID:   l.id,
				Job:       id,
				Spec:      camp.spec,
				Runs:      append([]int(nil), runs...),
				Digest:    camp.digest.String(),
				TTLMillis: c.opts.LeaseTTL.Milliseconds(),
			}
		}
	}
	return nil
}

// heartbeat renews a lease; false means the lease is gone and the worker
// should abandon the shard.
func (c *Coordinator) heartbeat(leaseID, worker string) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker, now)
	c.expireLocked(now)
	l := c.leases[leaseID]
	if l == nil {
		return false
	}
	l.deadline = now.Add(c.opts.LeaseTTL)
	return true
}

// acceptResults folds one batch of worker results into the campaign. Every
// record is judged by (job, run), not by lease, so a zombie worker's late
// results still count; a record for a claimed run is delivered as well,
// and the store compares it with the committed record, so one that
// differs fails the campaign. Returns the number of newly claimed runs and
// whether the worker should keep executing.
func (c *Coordinator) acceptResults(req *resultsRequest, bodyBytes int) (int, bool) {
	now := time.Now()
	c.mu.Lock()
	c.touchWorkerLocked(req.Worker, now)
	c.m.appendBytes.Add(uint64(bodyBytes))
	switch req.Fetch {
	case "hit":
		c.m.fetchHits.Inc()
	case "miss":
		c.m.fetchMisses.Inc()
	}
	if l := c.leases[req.LeaseID]; l != nil {
		l.deadline = now.Add(c.opts.LeaseTTL) // a result batch renews like a heartbeat
	}
	camp := c.campaigns[req.Job]
	// Pick the records to deliver under the lock; deliver them outside it
	// (the store append fsyncs — too slow to serialize every worker
	// behind).
	type delivery struct {
		rec   farm.RunRecord
		fresh bool
	}
	var deliveries []delivery
	for _, rec := range req.Records {
		open := camp != nil && !camp.closed
		switch {
		case open && camp.outstanding[rec.Run]:
			delete(camp.outstanding, rec.Run)
			camp.claimed[rec.Run] = true
			deliveries = append(deliveries, delivery{rec, true})
		case open && camp.claimed[rec.Run]:
			c.m.appendDuplicates.Inc()
			deliveries = append(deliveries, delivery{rec, false})
		default:
			c.m.appendDuplicates.Inc() // the job no longer dispatches, or never asked for the run
		}
	}
	if camp != nil {
		camp.inflight += len(deliveries)
	}
	c.mu.Unlock()

	accepted := 0
	var failure error
	for _, d := range deliveries {
		if err := camp.deliver(d.rec.Run, d.rec.Result()); err != nil {
			failure = fmt.Errorf("fleet: job %s run %d from worker %s: %w", req.Job, d.rec.Run, req.Worker, err)
			break
		}
		if d.fresh {
			accepted++
			c.m.appendRecords.Inc()
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if camp != nil {
		camp.inflight -= len(deliveries)
	}
	if failure == nil && req.Error != "" && camp != nil && !camp.closed {
		failure = fmt.Errorf("fleet: job %s: worker %s cannot execute lease %s: %s", req.Job, req.Worker, req.LeaseID, req.Error)
	}
	if failure != nil {
		camp.failLocked(failure)
		c.opts.Logf("%v", failure)
	}
	if camp != nil && !camp.closed && len(camp.outstanding) == 0 && camp.inflight == 0 {
		camp.closed = true
		close(camp.done)
	}
	if req.Done {
		if l := c.leases[req.LeaseID]; l != nil {
			delete(c.leases, req.LeaseID)
			c.m.shardsCompleted.Inc()
			if camp != nil && camp.failed == nil {
				// A shard released with undelivered runs and no error (the
				// worker stopped short) goes straight back, no expiry wait.
				c.requeueLocked(camp, l)
			}
		}
		return accepted, false
	}
	leaseOK := c.leases[req.LeaseID] != nil && camp != nil && camp.failed == nil
	return accepted, leaseOK
}

// blobData looks up a bundle by digest.
func (c *Coordinator) blobData(digest string) []byte {
	d, err := replay.ParseDigest(digest)
	if err != nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.blobs[d]; b != nil {
		return b.data
	}
	return nil
}

// Request body bounds, each at least 8× the largest body measured: a lease
// or heartbeat request is under 1 KB, and the largest results batch is four
// full-input streamcluster records of 798,822 bytes each.
const (
	maxLeaseBody     = 64 << 10
	maxHeartbeatBody = 64 << 10
	maxResultsBody   = 32 << 20
)

// Handler returns the fleet's worker-facing HTTP API, with full paths so it
// mounts under /api/v1/fleet/ on the daemon's mux:
//
//	POST /api/v1/fleet/lease          request a shard ({worker})
//	POST /api/v1/fleet/heartbeat      renew a lease ({lease_id, worker})
//	POST /api/v1/fleet/results        stream result batches (resultsRequest)
//	GET  /api/v1/fleet/blob/{digest}  fetch a replay bundle
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/fleet/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if _, err := farm.DecodeBody(r, maxLeaseBody, &req); err != nil {
			farm.HTTPError(w, farm.BodyStatus(err), fmt.Errorf("bad lease request: %w", err))
			return
		}
		farm.WriteJSON(w, http.StatusOK, leaseResponse{Lease: c.nextLease(req.Worker)})
	})
	mux.HandleFunc("POST /api/v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if _, err := farm.DecodeBody(r, maxHeartbeatBody, &req); err != nil {
			farm.HTTPError(w, farm.BodyStatus(err), fmt.Errorf("bad heartbeat: %w", err))
			return
		}
		farm.WriteJSON(w, http.StatusOK, heartbeatResponse{OK: c.heartbeat(req.LeaseID, req.Worker)})
	})
	mux.HandleFunc("POST /api/v1/fleet/results", func(w http.ResponseWriter, r *http.Request) {
		var req resultsRequest
		n, err := farm.DecodeBody(r, maxResultsBody, &req)
		if err != nil {
			farm.HTTPError(w, farm.BodyStatus(err), fmt.Errorf("bad results request: %w", err))
			return
		}
		accepted, ok := c.acceptResults(&req, n)
		farm.WriteJSON(w, http.StatusOK, resultsResponse{Accepted: accepted, LeaseOK: ok})
	})
	mux.HandleFunc("GET /api/v1/fleet/blob/{digest}", func(w http.ResponseWriter, r *http.Request) {
		data := c.blobData(r.PathValue("digest"))
		if data == nil {
			farm.HTTPError(w, http.StatusNotFound, fmt.Errorf("no bundle %s", r.PathValue("digest")))
			return
		}
		c.m.blobServeBytes.Add(uint64(len(data)))
		// The stored bytes, not re-encoded: the digest names them.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	})
	return mux
}
