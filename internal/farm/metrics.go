package farm

import (
	"time"

	"instantcheck/internal/obs"
	"instantcheck/internal/sim"
)

// Metrics is the farm's instrument panel: every series the daemon exports
// at /metrics. A Server always carries one (a series is one atomic word,
// cheap enough to maintain unconditionally); wiring a registry only
// controls whether they are scrapeable.
//
// Nothing on the simulator's per-access path touches these metrics. The
// per-run counters are declared once, in runCounters, and flushed once per
// finished run from the run's sim.Result, whose own fast-path accounting
// is derived (misses counted on the slow path only, hits by subtraction).
// They count only runs this daemon simulated: a fleet coordinator records
// each campaign's first run itself, and its workers replay the rest.
type Metrics struct {
	// Job lifecycle.
	jobsSubmitted *obs.Counter
	jobsResumed   *obs.Counter
	jobsFinished  *obs.CounterVec // state = done | failed | canceled
	jobDuration   *obs.Histogram

	// Run execution. perRun holds the runCounters families in table
	// order, each returning the counter for a scheme label (ignored when
	// unlabeled).
	perRun       []func(scheme string) *obs.Counter
	runsRestored *obs.Counter
	runDuration  *obs.Histogram

	// Access events delivered to attached listeners, by kind = read |
	// write. Labeled by access kind rather than scheme, and created by
	// the first run that carried a listener, so it is not a runCounters
	// row.
	detectionEvents *obs.CounterVec

	// Store (append-only hash log).
	storeAppends     *obs.Counter
	storeAppendBytes *obs.Counter
	storeAppendSecs  *obs.Histogram
	storeErrors      *obs.CounterVec // op = append | jobend

	// Exploration (explore jobs), per strategy.
	exploreRuns        *obs.CounterVec
	exploreDivergences *obs.CounterVec
	exploreDistinct    *obs.CounterVec
	exploreHints       *obs.CounterVec
}

// runCounter declares one per-run counter family: its name, its help text,
// whether its series are labeled by the run's hashing scheme (paper names
// as label values), and the amount one finished run adds.
type runCounter struct {
	name, help string
	byScheme   bool
	value      func(*sim.Result) uint64
}

// runCounters declares every per-run counter except the access-event
// counts (see Metrics.detectionEvents). Unlabeled rows exist from
// registration on, so a fresh daemon shows them at zero; a scheme-labeled
// series appears with the first run under that scheme.
var runCounters = []runCounter{
	{"checkfarm_runs_executed_total", "Simulated runs executed (including re-recorded run 1 on resume).", false,
		func(*sim.Result) uint64 { return 1 }},
	{"checkfarm_detection_runs_total", "Runs executed with an access-event listener attached (detector harvest runs and race-directed runs).", false,
		func(r *sim.Result) uint64 {
			if r.Counters.EventReads+r.Counters.EventWrites > 0 {
				return 1
			}
			return 0
		}},
	{"instantcheck_stores_total", "Data stores executed by checked runs, by hashing scheme.", true,
		func(r *sim.Result) uint64 { return r.Counters.Stores }},
	{"instantcheck_stores_hashed_total", "Stores hashed on the fly by the incremental schemes.", true,
		func(r *sim.Result) uint64 { return r.MHMStats.HashedStores }},
	{"instantcheck_checkpoints_total", "Determinism-checking points captured, by hashing scheme.", true,
		func(r *sim.Result) uint64 { return r.Counters.Checkpoints }},
	{"instantcheck_checkpoint_words_total", "Live words in the hashed state summed over checkpoints, by scheme.", true,
		func(r *sim.Result) uint64 { return r.Counters.CheckpointWords }},
	{"instantcheck_fastwindow_hits_total", "Memory accesses resolved by the inline fast window (derived: accesses minus slow-path entries).", false,
		func(r *sim.Result) uint64 {
			c := &r.Counters
			accesses, misses := c.Loads+c.Stores, c.FastLoadMisses+c.FastStoreMisses
			if accesses < misses { // misses include checker-internal zeroing stores
				return 0
			}
			return accesses - misses
		}},
	{"instantcheck_fastwindow_misses_total", "Memory accesses that fell through to the slow path.", false,
		func(r *sim.Result) uint64 { return r.Counters.FastLoadMisses + r.Counters.FastStoreMisses }},
	{"instantcheck_traverse_runs_hashed_total", "Page-bounded runs hashed by the traversal scheme's checkpoint sweeps.", false,
		func(r *sim.Result) uint64 { return r.Counters.TraverseRunsHashed }},
	{"instantcheck_traverse_full_sweeps_total", "Traversal checkpoints that rehashed every page holding live state: each run's first sweep.", false,
		func(r *sim.Result) uint64 { return r.Counters.TraverseFullSweeps }},
	{"instantcheck_traverse_delta_sweeps_total", "Traversal checkpoints served by dirty-page delta hashing.", false,
		func(r *sim.Result) uint64 { return r.Counters.TraverseDeltaSweeps }},
	{"instantcheck_traverse_dirty_pages_total", "Pages rehashed by delta sweeps (the work delta checkpoints actually did).", false,
		func(r *sim.Result) uint64 { return r.Counters.TraverseDirtyPages }},
	{"instantcheck_traverse_live_pages_total", "Per-page cache size sampled at each delta sweep (the work a full sweep would have done).", false,
		func(r *sim.Result) uint64 { return r.Counters.TraverseLivePages }},
	{"instantcheck_storebuffer_flushes_total", "Store-buffer drains through the scattered-batch hash kernel, by scheme.", true,
		func(r *sim.Result) uint64 { return r.Counters.StoreBufferFlushes }},
	{"instantcheck_storebuffer_drained_words_total", "Coalesced word updates hashed at drain time, by scheme.", true,
		func(r *sim.Result) uint64 { return r.Counters.StoreBufferDrainedWords }},
	{"instantcheck_storebuffer_coalesced_total", "Stores absorbed into a pending buffer entry instead of being hashed, by scheme.", true,
		func(r *sim.Result) uint64 { return r.Counters.StoreBufferCoalesced }},
}

// newMetrics registers the farm's metric families on reg.
func newMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		jobsSubmitted: reg.Counter("checkfarm_jobs_submitted_total",
			"Campaigns accepted by this daemon process."),
		jobsResumed: reg.Counter("checkfarm_jobs_resumed_total",
			"Unfinished campaigns re-queued from the store at startup."),
		jobsFinished: reg.CounterVec("checkfarm_jobs_finished_total",
			"Jobs reaching a terminal state, by state.", "state"),
		jobDuration: reg.Histogram("checkfarm_job_duration_seconds",
			"Wall time from job start to terminal state."),
		runsRestored: reg.Counter("checkfarm_runs_restored_total",
			"Runs resurrected from committed store records instead of re-executing."),
		runDuration: reg.Histogram("checkfarm_run_duration_seconds",
			"Wall time of one simulated run."),
		detectionEvents: reg.CounterVec("instantcheck_detection_events_total",
			"Access events delivered to attached race detectors, by access kind.", "kind"),
		storeAppends: reg.Counter("checkfarm_store_appends_total",
			"Record batches appended to the hash-log store."),
		storeAppendBytes: reg.Counter("checkfarm_store_append_bytes_total",
			"Bytes appended to the hash-log store."),
		storeAppendSecs: reg.Histogram("checkfarm_store_append_seconds",
			"Latency of one append (write + flush, and fsync except on explore run records)."),
		storeErrors: reg.CounterVec("checkfarm_store_errors_total",
			"Failed store writes, by operation.", "op"),
		exploreRuns: reg.CounterVec("checkfarm_explore_runs_total",
			"Schedules executed by explore jobs, by strategy.", "strategy"),
		exploreDivergences: reg.CounterVec("checkfarm_explore_divergences_total",
			"Explore campaigns that found a State-Hash divergence, by strategy.", "strategy"),
		exploreDistinct: reg.CounterVec("checkfarm_explore_distinct_outcomes_total",
			"Distinct (checkpoint, State Hash) outcomes observed by explore jobs, by strategy.", "strategy"),
		exploreHints: reg.CounterVec("checkfarm_explore_hint_preemptions_total",
			"Directed preemptions fired at hinted racy sites, by strategy.", "strategy"),
	}
	for _, rc := range runCounters {
		if rc.byScheme {
			m.perRun = append(m.perRun, reg.CounterVec(rc.name, rc.help, "scheme").With)
			continue
		}
		c := reg.Counter(rc.name, rc.help)
		m.perRun = append(m.perRun, func(string) *obs.Counter { return c })
	}
	return m
}

// observeExploreRun counts one executed exploration schedule.
func (m *Metrics) observeExploreRun(strategy string) {
	if m == nil {
		return
	}
	m.exploreRuns.With(strategy).Inc()
}

// observeExplore flushes a finished exploration campaign's outcome.
func (m *Metrics) observeExplore(out *ExploreOutcome) {
	if m == nil {
		return
	}
	if out.Found {
		m.exploreDivergences.With(out.Strategy).Inc()
	}
	m.exploreDistinct.With(out.Strategy).Add(uint64(out.DistinctOutcomes))
	m.exploreHints.With(out.Strategy).Add(uint64(out.Hits))
}

// observeRun flushes one executed run's runCounters and wall time d; the
// scheme's paper name becomes the label value.
func (m *Metrics) observeRun(scheme sim.Scheme, res *sim.Result, d time.Duration) {
	if m == nil {
		return
	}
	m.runDuration.Observe(d.Seconds())
	label := scheme.String()
	for i, rc := range runCounters {
		m.perRun[i](label).Add(rc.value(res))
	}
	if c := &res.Counters; c.EventReads+c.EventWrites > 0 {
		m.detectionEvents.With("read").Add(c.EventReads)
		m.detectionEvents.With("write").Add(c.EventWrites)
	}
}

// storeAppend records one append's outcome; the store calls it from
// under its own lock.
func (m *Metrics) storeAppend(d time.Duration, bytes int, err error) {
	if m == nil {
		return
	}
	m.storeAppends.Inc()
	m.storeAppendBytes.Add(uint64(bytes))
	m.storeAppendSecs.Observe(d.Seconds())
	if err != nil {
		m.storeErrors.With("append").Inc()
	}
}
