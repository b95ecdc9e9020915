// Package fleet distributes a determinism-checking campaign across worker
// processes: checkfleet. The farm (internal/farm) already splits a campaign
// into a recording run plus independent replay runs and exposes the replay
// stage behind the Dispatcher seam; this package implements that seam with
// a coordinator that shards the outstanding runs across worker nodes
// pulling work over HTTP.
//
// The protocol, built entirely on the paper's reproducibility guarantees:
//
//   - the coordinator records run 1 locally (inside farm's runJob), then
//     serializes the recorded replay substrate — program name, allocation-
//     address log, env-call streams — into a content-addressed bundle keyed
//     by its SHA-256 digest. Identical campaigns produce identical bundles,
//     so each worker fetches a given recording at most once and caches it
//     on disk by digest;
//   - workers pull: each lease hands out one shard of run indices with a
//     deadline the worker renews by heartbeat. A worker that stops
//     heartbeating (crash, SIGKILL, partition) loses its lease, and the
//     undelivered runs return to the shard queue for re-dispatch;
//   - workers replay their runs from the fetched bundle alone (§5: every
//     run is reproducible from the recorded logs plus the run index) and
//     post the resulting hash records back in batches. Append-back is
//     idempotent by (job, run): a straggler's record for a claimed run
//     goes to the farm's store, which compares it with the committed
//     record and drops it, never double-counted, and one that differs
//     fails the job;
//   - a shard a worker cannot execute from a bundle that matched its digest
//     would fail on every worker, so the worker reports the cause on its
//     final batch and the coordinator fails the job;
//   - because the per-run hash vectors are the only thing that travels and
//     report assembly is commutative over runs, a fleet campaign's report
//     is byte-identical to a single-node campaign's — regardless of worker
//     count, shard boundaries, or how many leases expired along the way.
package fleet

import "instantcheck/internal/farm"

// LeaseInfo is one granted shard: the runs a worker must replay, the job
// they belong to, and everything needed to execute them — the spec (which
// any host resolves to the same campaign) and the digest of the recorded
// replay bundle.
type LeaseInfo struct {
	LeaseID string       `json:"lease_id"`
	Job     farm.JobID   `json:"job"`
	Spec    farm.JobSpec `json:"spec"`
	Runs    []int        `json:"runs"`
	Digest  string       `json:"digest"`
	// TTLMillis is the lease deadline interval; the worker heartbeats well
	// inside it.
	TTLMillis int64 `json:"ttl_ms"`
}

// leaseRequest asks for work.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// leaseResponse carries a lease, or null when no work is pending.
type leaseResponse struct {
	Lease *LeaseInfo `json:"lease"`
}

// heartbeatRequest renews a lease's deadline.
type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
}

// heartbeatResponse tells the worker whether its lease still stands; a
// worker whose lease is gone stops executing the shard (whatever it already
// streamed back was accepted idempotently).
type heartbeatResponse struct {
	OK bool `json:"ok"`
}

// resultsRequest streams a batch of finished runs back to the coordinator.
type resultsRequest struct {
	LeaseID string     `json:"lease_id"`
	Worker  string     `json:"worker"`
	Job     farm.JobID `json:"job"`
	// Fetch reports the bundle cache outcome ("hit" or "miss"), set only on
	// the shard's first batch.
	Fetch   string           `json:"fetch,omitempty"`
	Records []farm.RunRecord `json:"records"`
	// Done marks the shard's final batch: the lease is released.
	Done bool `json:"done"`
	// Error, set only on a final batch, is why the worker could not execute
	// the rest of the shard from a bundle that matched its digest. The
	// coordinator fails the job with it.
	Error string `json:"error,omitempty"`
}

// resultsResponse acknowledges a batch. LeaseOK false tells the worker the
// campaign has moved on (lease expired and re-dispatched, job canceled):
// stop executing the shard.
type resultsResponse struct {
	Accepted int  `json:"accepted"`
	LeaseOK  bool `json:"lease_ok"`
}
