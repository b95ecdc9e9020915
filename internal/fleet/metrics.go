package fleet

import "instantcheck/internal/obs"

// metrics holds the coordinator-side checkfleet families. They live on
// the coordinator's own registry so a daemon embedding both the farm and
// a coordinator merges the two with obs.MergedHandler —
// obs.LintMerged rejects any name collision between them at startup. The
// scrape-time gauges (workers live, leases/campaigns active, per-worker
// liveness) are registered by NewCoordinator, which owns the state they
// read.
type metrics struct {
	shardsLeased    *obs.CounterVec // by worker
	shardsCompleted *obs.Counter
	shardsExpired   *obs.Counter
	runsRequeued    *obs.Counter

	fetchHits      *obs.Counter
	fetchMisses    *obs.Counter
	blobServeBytes *obs.Counter

	appendRecords    *obs.Counter
	appendBytes      *obs.Counter
	appendDuplicates *obs.Counter

	workerLive *obs.GaugeVec
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		shardsLeased: reg.CounterVec("checkfleet_shards_leased_total",
			"Run-shard leases granted, by worker.", "worker"),
		shardsCompleted: reg.Counter("checkfleet_shards_completed_total",
			"Leases released by their worker after the final result batch."),
		shardsExpired: reg.Counter("checkfleet_shards_expired_total",
			"Leases whose deadline passed without renewal (worker death, partition)."),
		runsRequeued: reg.Counter("checkfleet_runs_requeued_total",
			"Run indices returned to the shard queue by lease expiry or an incomplete shard."),
		fetchHits: reg.Counter("checkfleet_blob_fetch_hits_total",
			"Shard executions that found their replay bundle in the worker's disk cache."),
		fetchMisses: reg.Counter("checkfleet_blob_fetch_misses_total",
			"Shard executions that had to download their replay bundle."),
		blobServeBytes: reg.Counter("checkfleet_blob_serve_bytes_total",
			"Bytes of content-addressed replay bundles served to workers."),
		appendRecords: reg.Counter("checkfleet_appendback_records_total",
			"Run records accepted from workers and appended to the hash log."),
		appendBytes: reg.Counter("checkfleet_appendback_bytes_total",
			"Bytes of result batches received from workers."),
		appendDuplicates: reg.Counter("checkfleet_appendback_duplicates_total",
			"Run records dropped as duplicates (re-dispatched shard racing its zombie)."),
		workerLive: reg.GaugeVec("checkfleet_worker_live",
			"1 while the named worker has reported in within the liveness window.", "worker"),
	}
}
