package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"instantcheck"
	"instantcheck/internal/farm"
)

const (
	// setupRepeats is how many times a run sets the system up before
	// measuring; setup_s is the median. A set-up lasts about a millisecond,
	// most of it an fsync and goroutine wake-ups, so it takes many.
	setupRepeats = 41
	// raceSetupBuilds is how many times one races set-up sample builds
	// every op's program: building them all once takes under a
	// microsecond, too short to time alone.
	raceSetupBuilds = 100
	// pollInterval is the client's job-status poll period.
	pollInterval = 5 * time.Millisecond
	// opTimeout fails a farm job that has not finished in time, so a hung
	// daemon still ends the run.
	opTimeout = 2 * time.Minute
)

// endToEnd are the metrics of an untraced run's JSON line, the
// end_to_end list of BENCHMARK.json. CPU time is listed at the reference
// host speed (calibrate.go); as measured it is printed but not listed,
// because it follows the host's speed steps. The wall-clock metrics are
// printed but not listed either: across ten runs of identical code on a
// shared 2-core host their spread reaches 0.17-0.44 of the median, beyond
// the largest bound a listed metric may have (0.25).
var endToEnd = []string{"setup_s", "cpu_ref_s", "peak_rss_mb"}

// bench is one invocation: a workload, a seed and a measurement length.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	out     string
	refsDir string
}

// opRecord is one executed op.
type opRecord struct {
	op       op
	latency  time.Duration
	runs     int
	res      any
	err      error
	job      *farm.Job // daemon ops: the terminal job status
	reported time.Time // daemon ops: when the report was in hand
	done     time.Time // when the checked result was in hand
}

// pass is one closed-loop sweep over a workload's ops. dur and cpu leave
// out the calibration samples taken during the pass; wall does not.
type pass struct {
	dur    time.Duration
	wall   time.Duration
	cpu    float64   // process CPU seconds, user + system
	speeds []float64 // host speed samples (calibrated passes)
	runs   int
	rss    float64 // peak resident MB during the pass
}

// meter measures one pass as a series of stretches of work. With
// calibration it samples the host speed before the pass, after each
// stretch of at least calEvery and after the pass, and leaves the samples'
// own time out of the pass's.
type meter struct {
	cal   bool
	p     pass
	start time.Time // of the pass
	s0    time.Time // of the current stretch
	cpu0  float64
}

// begin starts the pass and its first stretch.
func (m *meter) begin() error {
	m.start = time.Now()
	if m.cal {
		if err := m.sample(); err != nil {
			return err
		}
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	m.s0, m.cpu0 = time.Now(), cpuSeconds()
	return nil
}

// sample records one host speed sample.
func (m *meter) sample() error {
	s, err := hostSpeed()
	if err != nil {
		return err
	}
	m.p.speeds = append(m.p.speeds, s)
	return nil
}

// op is called after each op; last says it was the pass's last.
func (m *meter) op(last bool) error {
	if !last && !(m.cal && time.Since(m.s0) >= calEvery) {
		return nil
	}
	dur, cpu := time.Since(m.s0), cpuSeconds()-m.cpu0
	m.p.dur += dur
	m.p.cpu += cpu
	if last {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		m.p.rss = rss
	}
	if m.cal {
		if err := m.sample(); err != nil {
			return err
		}
	}
	if last {
		m.p.wall = time.Since(m.start)
	}
	m.s0, m.cpu0 = time.Now(), cpuSeconds()
	return nil
}

// newTransport returns a private HTTP transport, so closing a daemon
// closes exactly its client connections.
func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// setup sets the system under test up setupRepeats times and returns the
// duration of each set-up. For daemon workloads one set-up is the boot every
// pass starts with: checkd on a fresh store until it answers /healthz and,
// in fleet mode, every worker is live (store opened, server started,
// listener bound). For races it is the harness work before the first call:
// building every op's program.
func (b *bench) setup() ([]float64, error) {
	ops := b.w.ops(b.seed)
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if !b.w.daemon {
			start := time.Now()
			for r := 0; r < raceSetupBuilds; r++ {
				for _, o := range ops {
					raceBuilder(o)()
				}
			}
			times = append(times, time.Since(start).Seconds()/raceSetupBuilds)
			continue
		}
		dir, err := os.MkdirTemp(b.out, "store-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		d, err := bootDaemon(dir, b.w.fleet, newTransport())
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if err := d.close(); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// boot starts checkd on a fresh store under b.out.
func (b *bench) boot(transport http.RoundTripper) (*daemon, error) {
	dir, err := os.MkdirTemp(b.out, "store-")
	if err != nil {
		return nil, err
	}
	return bootDaemon(dir, b.w.fleet, transport)
}

// sweep runs closed-loop passes over ops for as long as more allows (at
// least one), sampling the host speed during each pass when cal is set
// (see meter). Each pass of a daemon workload gets a freshly booted daemon,
// and each pass starts after a full GC that returns the freed memory to the
// OS, with the peak-RSS count restarted, so no pass inherits the jobs, the
// garbage or the resident pages of those before it: otherwise a fast
// machine, fitting more passes, would run its later passes on a larger heap. With a tracer, sweep
// also sums each series' /metrics growth over the passes. It returns the
// last pass's daemon, still running (nil for library calls).
func (b *bench) sweep(ctx context.Context, transport http.RoundTripper, ops []op, chk checker, tr *tracer,
	cal bool, more func([]pass) bool) (*daemon, []pass, []opRecord, map[string]float64, error) {

	var d *daemon
	var passes []pass
	var recs []opRecord
	delta := make(map[string]float64)
	for len(passes) == 0 || more(passes) {
		var before samples
		if b.w.daemon {
			if d != nil {
				if err := d.close(); err != nil {
					return nil, nil, nil, nil, err
				}
			}
			var err error
			if d, err = b.boot(transport); err != nil {
				return nil, nil, nil, nil, err
			}
			if tr != nil {
				if before, err = d.scrape(ctx); err != nil {
					return nil, nil, nil, nil, err
				}
			}
		}
		debug.FreeOSMemory()
		m := &meter{cal: cal}
		if err := m.begin(); err != nil {
			return nil, nil, nil, nil, err
		}
		for i, o := range ops {
			rec := execOp(ctx, d, o, chk, tr)
			m.p.runs += rec.runs
			recs = append(recs, rec)
			if err := m.op(i == len(ops)-1); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		passes = append(passes, m.p)
		if tr != nil && d != nil {
			after, err := d.scrape(ctx)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			for _, x := range after {
				delta[x.Name] += x.Value
			}
			for _, x := range before {
				delta[x.Name] -= x.Value
			}
		}
	}
	return d, passes, recs, delta, nil
}

// passCount is a sweep condition for exactly n passes.
func passCount(n int) func([]pass) bool {
	return func(p []pass) bool { return len(p) < n }
}

// execOp issues one op, waits for its result and checks it.
func execOp(ctx context.Context, d *daemon, o op, chk checker, tr *tracer) opRecord {
	id := tr.newOp()
	rec := opRecord{op: o}
	start := time.Now()
	if d == nil {
		var cl *instantcheck.RaceClassification
		tr.call(id, "ClassifyRaces", func() { cl, rec.err = instantcheck.ClassifyRaces(raceBuilder(o), o.cfg) })
		if rec.err == nil {
			benign := cl.BenignCount()
			rec.res = raceResult{Races: len(cl.Verdicts), Benign: benign,
				Harmful: len(cl.Verdicts) - benign, Deterministic: cl.Deterministic}
			rec.runs = 2 * o.cfg.Runs // detection runs, then state-comparison runs
		}
	} else {
		rec.err = execJob(ctx, d, o, id, tr, &rec)
	}
	if rec.err == nil {
		rec.err = chk.check(o, rec.res)
	}
	rec.done = time.Now()
	rec.latency = rec.done.Sub(start)
	tr.root(id, o.name, start, rec.done)
	if rec.job != nil && !rec.job.Started.IsZero() {
		tr.add(id, "farm.queue", rec.job.Submitted, rec.job.Started)
		tr.add(id, "farm.exec", rec.job.Started, rec.job.Finished)
	}
	return rec
}

// execJob submits o as a farm job and fills rec with its result.
func execJob(ctx context.Context, d *daemon, o op, id int, tr *tracer, rec *opRecord) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var err error
	tr.call(id, "Client.Submit", func() { rec.job, err = d.client.Submit(ctx, o.spec) })
	if err != nil {
		return err
	}
	tr.call(id, "Client.Wait", func() { rec.job, err = d.client.Wait(ctx, rec.job.ID, pollInterval) })
	if err != nil {
		return err
	}
	job := rec.job
	if job.State != farm.JobDone {
		return fmt.Errorf("%s: job %s ended %s: %s", o.name, job.ID, job.State, job.Error)
	}
	var rep *farm.Report
	tr.call(id, "Client.Report", func() { rep, err = d.client.Report(ctx, job.ID) })
	if err != nil {
		return err
	}
	rec.reported = time.Now()
	if o.kind == exploreOp {
		if rep.Explore == nil {
			return fmt.Errorf("%s: explore report without outcome", o.name)
		}
		rec.res, rec.runs = *rep.Explore, rep.Explore.Runs
		return nil
	}
	var hl string
	tr.call(id, "Client.HashLog", func() { hl, err = d.client.HashLog(ctx, job.ID) })
	if err != nil {
		return err
	}
	sum := sha256.Sum256([]byte(hl))
	rec.res = checkResult{
		Program: rep.Program, Runs: rep.Runs, Points: rep.Points, DetPoints: rep.DetPoints,
		NDetPoints: rep.NDetPoints, Deterministic: rep.Deterministic, DetAtEnd: rep.DetAtEnd,
		FirstNDetRun: rep.FirstNDetRun, ShapeMismatch: rep.ShapeMismatch,
		OutputDistinct: rep.OutputDistinct, HashLogSHA256: hex.EncodeToString(sum[:]),
	}
	rec.runs = rep.Runs
	return nil
}

// failures counts failed ops and reports the first few on stderr.
func failures(recs []opRecord) int {
	n := 0
	for _, r := range recs {
		if r.err != nil {
			if n < 5 {
				fmt.Fprintln(os.Stderr, "perfbench: op failed:", r.err)
			}
			n++
		}
	}
	return n
}

// untraced measures the end-to-end metrics: passes until another would
// overrun b.seconds.
func (b *bench) untraced() (*outcome, error) {
	r, err := loadRefs(b.refsDir, b.w.refs)
	if err != nil {
		return nil, err
	}
	chk := newChecker(r, b.seed)
	setups, err := b.setup()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	budget := time.Duration(b.seconds * float64(time.Second))
	start := time.Now()
	d, passes, recs, _, err := b.sweep(ctx, newTransport(), b.w.ops(b.seed), chk, nil, true, func(p []pass) bool {
		return time.Since(start)+p[len(p)-1].wall <= budget
	})
	if err != nil {
		return nil, err
	}
	var gates []string
	if d != nil {
		m, err := d.scrape(ctx)
		if err != nil {
			return nil, err
		}
		gates = metricGates(b.w, m, d.fleetWorkers)
		if err := d.close(); err != nil {
			return nil, err
		}
	} else {
		gates = raceGates(recs)
	}

	o := &outcome{attempted: len(recs), failed: failures(recs), gates: gates, weakCheck: chk.weak()}
	var spans, cpus, speeds, rss, rates, lats []float64
	for _, p := range passes {
		spans = append(spans, p.dur.Seconds())
		cpus = append(cpus, p.cpu)
		speeds = append(speeds, p.speeds...)
		rss = append(rss, p.rss)
		rates = append(rates, float64(p.runs)/p.dur.Seconds())
	}
	for _, rec := range recs {
		lats = append(lats, rec.latency.Seconds())
	}
	o.metrics = []metric{
		{name: "setup_s", value: median(setups), unit: "s", samples: len(setups)},
		{name: "cpu_ref_s", value: cpuAtRef(median(cpus), median(speeds)), unit: "s", samples: len(cpus)},
		{name: "cpu_s", value: median(cpus), unit: "s", samples: len(cpus)},
		{name: "host_speed", value: median(speeds), unit: "1", samples: len(speeds)},
		{name: "makespan_s", value: median(spans), unit: "s", samples: len(spans)},
		{name: "runs_per_s", value: median(rates), unit: "runs/s", samples: len(rates)},
		{name: "op_latency_p50_s", value: median(lats), unit: "s", samples: len(lats)},
	}
	if q, v, ok := tail(lats); ok {
		o.metrics = append(o.metrics, metric{name: "op_latency_tail_s", value: v, unit: "s",
			samples: len(lats), note: "percentile=p" + strconv.Itoa(q)})
	}
	o.metrics = append(o.metrics,
		metric{name: "peak_rss_mb", value: median(rss), unit: "MB", samples: len(rss)},
		metric{name: "ops_failed_ratio", value: float64(o.failed) / float64(len(recs)), unit: "1", samples: len(recs)})
	if b.w.name == "hunt" {
		o.metrics = append(o.metrics, huntMetrics(recs)...)
	}
	o.json = endToEnd
	return o, nil
}

// huntMetrics is runs-to-divergence and the found ratio over explore ops;
// a search that finds nothing counts as budget+1 (exploreeff's rule).
func huntMetrics(recs []opRecord) []metric {
	var needed []float64
	found := 0
	for _, r := range recs {
		out, ok := r.res.(farm.ExploreOutcome)
		if !ok {
			continue
		}
		if out.Found {
			found++
			needed = append(needed, float64(out.DivergedRun))
		} else {
			needed = append(needed, float64(out.Budget+1))
		}
	}
	if len(needed) == 0 {
		return nil
	}
	return []metric{
		{name: "runs_to_divergence_p50", value: median(needed), unit: "runs", samples: len(needed)},
		{name: "bugs_found_ratio", value: float64(found) / float64(len(needed)), unit: "1", samples: len(needed)},
	}
}

// metricGates fails a daemon workload whose mechanism did not run,
// reading checkd's cumulative /metrics.
func metricGates(w *workload, m samples, fleetWorkers int) []string {
	var failed []string
	gate := func(ok bool, what string) {
		if !ok {
			failed = append(failed, w.name+": "+what)
		}
	}
	sweeps := m.sum("instantcheck_traverse_full_sweeps_total") + m.sum("instantcheck_traverse_delta_sweeps_total")
	switch w.name {
	case "table1":
		gate(m.sum("instantcheck_storebuffer_drained_words_total") > 0, "no store buffer was drained")
		gate(sweeps == 0, "a traversal sweep ran")
	case "fleet-tr":
		leased := m.byLabel("checkfleet_shards_leased_total", "worker")
		for i := 0; i < fleetWorkers; i++ {
			name := fmt.Sprintf("w%d", i)
			gate(leased[name] > 0, "worker "+name+" leased no shard")
		}
		gate(m.sum("checkfleet_workers_live") == float64(fleetWorkers), "not every worker is live")
		gate(m.sum("instantcheck_traverse_delta_sweeps_total") > 0, "no delta sweep ran")
		gate(m.sum("instantcheck_storebuffer_flushes_total") == 0, "a store buffer was flushed")
	case "hunt":
		runs := m.byLabel("checkfarm_explore_runs_total", "strategy")
		for _, s := range []string{"uniform", "pct", "race-directed", "coverage"} {
			gate(runs[s] > 0, "strategy "+s+" ran no schedule")
		}
		gate(m.sum("checkfarm_detection_runs_total") > 0, "no detection run")
	}
	return failed
}

// raceGates fails races when no op found a race: without delivered
// detection events the detector cannot report any.
func raceGates(recs []opRecord) []string {
	for _, r := range recs {
		if rr, ok := r.res.(raceResult); ok && rr.Races > 0 {
			return nil
		}
	}
	return []string{"races: no detection event produced a race"}
}

// recordRefs runs one pass at b.seed and stores every op's result as the
// seed's reference. Each result must first pass the seed-independent
// checks. A seed that already has references is checked against them
// instead and nothing is written: fleet-tr, recorded after table1, must
// reproduce table1's.
func (b *bench) recordRefs() error {
	r, err := loadRefs(b.refsDir, b.w.refs)
	if err != nil {
		return err
	}
	chk := newChecker(r, b.seed)
	d, _, recs, _, err := b.sweep(context.Background(), newTransport(), b.w.ops(b.seed), chk, nil, false, passCount(1))
	if err != nil {
		return err
	}
	if d != nil {
		if err := d.close(); err != nil {
			return err
		}
	}
	seedRefs := make(map[string]json.RawMessage)
	for _, rec := range recs {
		if rec.err != nil {
			return rec.err
		}
		raw, err := json.Marshal(rec.res)
		if err != nil {
			return err
		}
		seedRefs[rec.op.name] = raw
	}
	if !chk.weak() {
		return nil
	}
	r[strconv.FormatInt(b.seed, 10)] = seedRefs
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.refsDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(refsPath(b.refsDir, b.w.refs), append(data, '\n'), 0o644)
}

// writeJSONLines writes one JSON document per line.
func writeJSONLines[T any](path string, items []T) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
