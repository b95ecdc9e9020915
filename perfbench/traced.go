package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"instantcheck/internal/explore"
)

// busyLayers are the profile layers reported as <layer>.busy_s, in order.
// sched.coro is reported inside sched and again on its own.
var busyLayers = []string{
	"sched", "sim.accessor", "sim.machine", "sim.pc", "mem", "mhm", "ihash", "fpround",
	"racefilter", "explore", "farm", "fleet", "core", "replay", "obs", "apps", "harness", "http",
}

// busyName is the metric name of a layer's busy time.
func busyName(layer string) string {
	switch layer {
	case "sim.accessor", "sim.machine", "sim.pc":
		return layer + "_busy_s"
	}
	return layer + ".busy_s"
}

// traced runs the workload with tracing: tracedPasses untraced passes
// (the overhead baseline), the same number traced with spans, HTTP call
// counting, /metrics scrapes and a CPU profile, and then the layer probe
// over one pass. Every pass runs on a fresh daemon, as in untraced. Every
// count is per pass.
func (b *bench) traced() (*outcome, error) { return b.tracedOps(b.w.ops(b.seed)) }

// tracedOps is traced over the given ops of the workload.
func (b *bench) tracedOps(ops []op) (*outcome, error) {
	ct := &countingTransport{base: newTransport()}
	r, err := loadRefs(b.refsDir, b.w.refs)
	if err != nil {
		return nil, err
	}
	chk := newChecker(r, b.seed)
	ctx := context.Background()
	np := b.w.tracedPasses

	d, plain, recs, _, err := b.sweep(ctx, ct, ops, chk, nil, false, passCount(np))
	if err != nil {
		return nil, err
	}
	if d != nil {
		if err := d.close(); err != nil {
			return nil, err
		}
	}
	ct.take()
	profPath := filepath.Join(b.out, fmt.Sprintf("cpu-%s-%d.pprof", b.w.name, b.seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	tr := newTracer()
	d, passes, trecs, delta, err := b.sweep(ctx, ct, ops, chk, tr, false, passCount(np))
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	calls := ct.take()
	recs = append(recs, trecs...)

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
		gates = raceGates(trecs)
	}
	spansPath := filepath.Join(b.out, fmt.Sprintf("spans-%s-%d.jsonl", b.w.name, b.seed))
	if err := writeJSONLines(spansPath, tr.spans); err != nil {
		return nil, err
	}

	want := make(map[string]any)
	for _, rec := range trecs {
		want[rec.op.name] = rec.res
	}
	pr, err := runProbe(ops, want)
	if err != nil {
		return nil, err
	}
	gates = append(gates, probeGates(b.w, pr)...)
	layers, err := profileLayers(profPath)
	if err != nil {
		return nil, err
	}

	o := &outcome{attempted: len(recs), failed: failures(recs), gates: gates, weakCheck: chk.weak()}
	perPass := func(x float64) float64 { return x / float64(np) }
	add := func(name string, v float64, unit string, n int) {
		o.metrics = append(o.metrics, metric{name: name, value: v, unit: unit, samples: n})
	}

	// Profile split.
	var total int64
	for _, ns := range layers {
		total += ns
	}
	nsamples := int(total / 1e7) // 100 Hz profile
	busy := func(layer string) float64 { return perPass(float64(layers[layer]) / 1e9) }
	share := func(ns int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(ns) / float64(total)
	}
	for _, l := range busyLayers {
		v := busy(l)
		if l == "sched" {
			v += busy("sched.coro")
		}
		add(busyName(l), v, "s", nsamples)
	}
	add("sched.coro_busy_s", busy("sched.coro"), "s", nsamples)
	add("runtime.gc_busy_s", busy("runtime.gc"), "s", nsamples)
	add("runtime.sched_busy_s", busy("runtime.sched"), "s", nsamples)
	add("runtime.unattributed_share", share(layers[""]), "1", nsamples)
	add("hash.busy_share", share(layers["mhm"]+layers["ihash"]), "1", nsamples)

	// Layer-probe counts.
	c := pr.c
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	schedNs := 0.0
	if c.SchedOps > 0 {
		schedNs = (busy("sched") + busy("sched.coro")) * 1e9 / float64(c.SchedOps)
	}
	add("sched.ops", float64(c.SchedOps), "count", pr.runs)
	add("sched.ns_per_op", schedNs, "ns", pr.runs)
	add("sim.instr", float64(c.Instr), "count", pr.runs)
	add("sim.loads", float64(c.Loads), "count", pr.runs)
	add("sim.stores", float64(c.Stores), "count", pr.runs)
	add("mem.fastwin_miss_ratio", ratio(c.FastLoadMisses+c.FastStoreMisses, c.Loads+c.Stores), "1", pr.runs)
	add("mhm.hashed_pairs", float64(pr.mhm.DrainedWords+pr.mhm.ConflictEvictions), "count", pr.runs)
	add("mhm.coalesced_ratio", ratio(pr.mhm.CoalescedStores, c.Stores), "1", pr.runs)
	add("ihash.traverse_dirty_ratio", ratio(c.TraverseDirtyPages, c.TraverseLivePages), "1", pr.runs)
	add("ihash.traverse_runs_hashed", float64(c.TraverseRunsHashed), "count", pr.runs)
	add("ihash.sharded_sweeps", float64(c.TraverseShardedSweeps), "count", pr.runs)
	det := pr.det
	add("racefilter.events", float64(c.EventReads+c.EventWrites), "count", pr.runs)
	add("racefilter.fast_ratio", ratio(det.ReadFast+det.WriteFast, det.ReadFast+det.ReadSlow+det.WriteFast+det.WriteSlow), "1", pr.runs)
	add("racefilter.read_spills", float64(det.ReadSpills), "count", pr.runs)
	add("racefilter.shadow_pages", float64(det.ShadowPages), "count", pr.runs)
	add("explore.runs", float64(pr.exploreRuns), "runs", pr.runs)
	add("explore.distinct_outcomes", float64(pr.distinct), "count", pr.runs)
	add("explore.hint_preemptions", float64(pr.hints), "count", pr.runs)
	add("core.record_s_p50", median(pr.record), "s", len(pr.record))
	add("core.replay_s_p50", median(pr.replay), "s", len(pr.replay))
	add("core.assemble_s", pr.assemble, "s", len(pr.record))

	// Farm API, queue and executor, from the traced ops.
	var queue, exec, lag []float64
	for _, rec := range trecs {
		if rec.job == nil {
			continue
		}
		queue = append(queue, rec.job.Started.Sub(rec.job.Submitted).Seconds())
		exec = append(exec, rec.job.Finished.Sub(rec.job.Started).Seconds())
		lag = append(lag, rec.reported.Sub(rec.job.Finished).Seconds())
	}
	add("farm.api.calls_per_op", float64(len(calls))/float64(len(trecs)), "calls", len(trecs))
	add("farm.api.call_s_p50", median(calls), "s", len(calls))
	add("farm.api.poll_lag_s_p50", median(lag), "s", len(lag))
	add("farm.queue_wait_s_p50", median(queue), "s", len(queue))
	add("farm.exec_s_p50", median(exec), "s", len(exec))

	// Store and fleet families, as /metrics deltas over the traced passes.
	grown := func(name string) float64 { return perPass(delta[name]) }
	add("farm.store.appends", grown("checkfarm_store_appends_total"), "count", len(trecs))
	add("farm.store.append_bytes", grown("checkfarm_store_append_bytes_total"), "bytes", len(trecs))
	add("farm.store.append_s_sum", grown("checkfarm_store_append_seconds_sum"), "s", len(trecs))
	add("fleet.shards_leased", grown("checkfleet_shards_leased_total"), "count", len(trecs))
	add("fleet.shards_expired", grown("checkfleet_shards_expired_total"), "count", len(trecs))
	add("fleet.runs_requeued", grown("checkfleet_runs_requeued_total"), "count", len(trecs))
	add("fleet.appendback_duplicates", grown("checkfleet_appendback_duplicates_total"), "count", len(trecs))
	add("fleet.blob_serve_bytes", grown("checkfleet_blob_serve_bytes_total"), "bytes", len(trecs))

	// Go runtime, over the traced passes.
	runs := 0
	for _, p := range passes {
		runs += p.runs
	}
	add("runtime.allocs_per_run", float64(ms1.Mallocs-ms0.Mallocs)/float64(runs), "allocs", runs)
	add("runtime.alloc_bytes_per_run", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(runs), "bytes", runs)

	// Hunt's search outcome (zero on the other workloads).
	divergence, found := 0.0, 0.0
	if hm := huntMetrics(trecs); hm != nil {
		divergence, found = hm[0].value, hm[1].value
	}
	add("runs_to_divergence_p50", divergence, "runs", len(trecs))
	add("bugs_found_ratio", found, "1", len(trecs))

	var plainSpans, tracedSpans []float64
	for _, p := range plain {
		plainSpans = append(plainSpans, p.dur.Seconds())
	}
	for _, p := range passes {
		tracedSpans = append(tracedSpans, p.dur.Seconds())
	}
	add("trace.overhead_ratio", median(tracedSpans)/median(plainSpans), "1", len(passes))

	for _, m := range o.metrics {
		o.json = append(o.json, m.name)
	}
	o.sentinel = make(map[string]float64)
	for _, m := range o.metrics {
		if sentinelNames[m.name] {
			o.sentinel[m.name] = m.value
		}
	}
	o.extra = layerTable(layers, total)
	o.extra = append(o.extra, fmt.Sprintf("spans: %s (%d spans)  profile: %s", spansPath, len(tr.spans), profPath))
	return o, nil
}

// sentinelNames are the counts a change that only alters speed must leave
// identical (fleet counts are excluded: shard placement is timing).
var sentinelNames = map[string]bool{
	"sim.instr": true, "sim.loads": true, "sim.stores": true, "sched.ops": true,
	"mhm.hashed_pairs": true, "racefilter.events": true, "explore.runs": true,
	"farm.store.appends": true, "runs_to_divergence_p50": true,
}

// probeGates fails a workload whose mechanism the layer probe did not see.
func probeGates(w *workload, pr *probe) []string {
	var failed []string
	gate := func(ok bool, what string) {
		if !ok {
			failed = append(failed, w.name+" (probe): "+what)
		}
	}
	c := pr.c
	switch w.name {
	case "table1":
		gate(pr.mhm.DrainedWords > 0, "no store buffer was drained")
		gate(c.TraverseFullSweeps+c.TraverseDeltaSweeps == 0, "a traversal sweep ran")
	case "fleet-tr":
		gate(c.TraverseDeltaSweeps > 0, "no delta sweep ran")
		gate(c.StoreBufferFlushes == 0, "a store buffer was flushed")
	case "hunt":
		for _, s := range explore.StrategyNames() {
			gate(pr.strategies[s] > 0, "strategy "+s+" ran no schedule")
		}
		gate(c.EventReads+c.EventWrites > 0, "no detection event")
	case "races":
		gate(c.EventReads+c.EventWrites > 0, "no detection event was delivered")
	}
	return failed
}

// layerTable renders each layer's share of the profile.
func layerTable(layers map[string]int64, total int64) []string {
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	out := []string{fmt.Sprintf("profile: %d samples, %.1f%% attributed to a named layer",
		total/1e7, 100*(1-float64(layers[""])/float64(max(total, 1))))}
	for _, l := range names {
		name := l
		if name == "" {
			name = "(unattributed)"
		}
		out = append(out, fmt.Sprintf("  layer %-16s %6.2f%%", name, 100*float64(layers[l])/float64(max(total, 1))))
	}
	return out
}
