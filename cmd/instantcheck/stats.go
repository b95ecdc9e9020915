package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"instantcheck/internal/farm"
	"instantcheck/internal/obs"
)

// remoteStats renders a daemon's /healthz and /metrics as a human-readable
// snapshot: the health summary first, then every counter and gauge, with
// histogram families folded to count/mean. -raw skips the rendering and
// dumps the Prometheus exposition verbatim (for piping into other tools).
func remoteStats(ctx context.Context, c *farm.Client, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("remote stats", flag.ExitOnError)
	raw := fs.Bool("raw", false, "dump the raw Prometheus text exposition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("remote stats: %w", err)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		return fmt.Errorf("remote stats: %w", err)
	}
	if *raw {
		fmt.Fprint(w, text)
		return nil
	}
	samples, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		return fmt.Errorf("remote stats: daemon served malformed metrics: %w", err)
	}

	fmt.Fprintf(w, "%s: %s  up %s  %d job(s), %d running, %d queued\nstore %s\n",
		c.BaseURL, h.Status, formatSeconds(h.UptimeSeconds), h.Jobs, h.Running, h.QueueDepth, h.StorePath)
	if line := deltaRatioLine(samples); line != "" {
		fmt.Fprintln(w, line)
	}
	if line := coalesceLine(samples); line != "" {
		fmt.Fprintln(w, line)
	}
	if line := fleetLine(samples); line != "" {
		fmt.Fprintln(w, line)
	}
	if line := detectionLine(samples); line != "" {
		fmt.Fprintln(w, line)
	}
	for _, line := range exploreLines(samples) {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w)
	printSamples(w, samples)
	return nil
}

// deltaRatioLine summarizes the dirty-page delta hasher's effectiveness:
// what fraction of the live state delta checkpoints actually rehashed,
// against the volume full sweeps would have visited. Empty when the daemon
// has run no delta checkpoints yet.
func deltaRatioLine(samples []obs.Sample) string {
	dirty := obs.Sum(samples, "instantcheck_traverse_dirty_pages_total")
	live := obs.Sum(samples, "instantcheck_traverse_live_pages_total")
	if live <= 0 {
		return ""
	}
	return fmt.Sprintf("traverse delta: %s of %s live pages rehashed (%.1f%% dirty)",
		formatMetric(dirty), formatMetric(live), 100*dirty/live)
}

// coalesceLine summarizes the store buffer's effectiveness: how many stores
// the incremental schemes absorbed into pending buffer entries against the
// word updates that reached the hash kernel at drain time, across however
// many flushes. Empty before any buffered run has drained (buffer off, or a
// traversal-only daemon). Per-scheme series fold to a daemon-wide total.
func coalesceLine(samples []obs.Sample) string {
	flushes := obs.Sum(samples, "instantcheck_storebuffer_flushes_total")
	drained := obs.Sum(samples, "instantcheck_storebuffer_drained_words_total")
	coalesced := obs.Sum(samples, "instantcheck_storebuffer_coalesced_total")
	if flushes <= 0 {
		return ""
	}
	return fmt.Sprintf("store buffer: %s stores coalesced into %s drained words over %s flushes (%.1f%% absorbed)",
		formatMetric(coalesced), formatMetric(drained), formatMetric(flushes),
		100*coalesced/(coalesced+drained))
}

// fleetLine summarizes a fleet-mode daemon: live workers, shard traffic and
// how much re-dispatch the campaign needed. Per-worker lease series fold to
// a fleet total. Empty on a non-fleet daemon (the checkfleet families are
// absent) or before any worker has leased.
func fleetLine(samples []obs.Sample) string {
	leased := obs.Sum(samples, "checkfleet_shards_leased_total")
	if leased == 0 {
		return ""
	}
	return fmt.Sprintf("fleet: %s worker(s) live, shards %s leased / %s completed / %s expired, %s run(s) re-queued",
		formatMetric(obs.Sum(samples, "checkfleet_workers_live")), formatMetric(leased),
		formatMetric(obs.Sum(samples, "checkfleet_shards_completed_total")),
		formatMetric(obs.Sum(samples, "checkfleet_shards_expired_total")),
		formatMetric(obs.Sum(samples, "checkfleet_runs_requeued_total")))
}

// detectionLine summarizes detection-run traffic: how many runs carried an
// access-event listener and the event volume those listeners consumed.
// Empty before any such run has executed.
func detectionLine(samples []obs.Sample) string {
	runs := obs.Sum(samples, "checkfarm_detection_runs_total")
	if runs <= 0 {
		return ""
	}
	events := obs.SumBy(samples, "instantcheck_detection_events_total", "kind")
	return fmt.Sprintf("detection: %s run(s), %s read / %s write events observed",
		formatMetric(runs), formatMetric(events["read"]), formatMetric(events["write"]))
}

// exploreLines summarizes exploration traffic per strategy: schedules
// executed, campaigns that found a divergence, coverage and directed
// preemptions. Empty before any explore job has run.
func exploreLines(samples []obs.Sample) []string {
	fold := func(name string) map[string]float64 { return obs.SumBy(samples, name, "strategy") }
	runs := fold("checkfarm_explore_runs_total")
	div := fold("checkfarm_explore_divergences_total")
	distinct := fold("checkfarm_explore_distinct_outcomes_total")
	hits := fold("checkfarm_explore_hint_preemptions_total")
	var out []string
	for _, name := range slices.Sorted(maps.Keys(runs)) {
		if runs[name] <= 0 {
			continue
		}
		line := fmt.Sprintf("explore[%s]: %s run(s), %s divergence(s) found, %s distinct outcomes",
			name, formatMetric(runs[name]), formatMetric(div[name]), formatMetric(distinct[name]))
		if hits[name] > 0 {
			line += fmt.Sprintf(", %s directed preemptions", formatMetric(hits[name]))
		}
		out = append(out, line)
	}
	return out
}

// formatSeconds renders an uptime without sub-second noise.
func formatSeconds(s float64) string {
	sec := int64(s)
	switch {
	case sec >= 3600:
		return fmt.Sprintf("%dh%dm", sec/3600, sec%3600/60)
	case sec >= 60:
		return fmt.Sprintf("%dm%ds", sec/60, sec%60)
	default:
		return fmt.Sprintf("%ds", sec)
	}
}

// printSamples renders parsed exposition samples, one aligned line per
// series, folding each histogram family into a single count/mean line.
func printSamples(w io.Writer, samples []obs.Sample) {
	type histo struct{ sum, count float64 }
	hists := map[string]*histo{}
	var lines []string
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			continue // the per-bound detail is -raw territory
		}
		if base, ok := strings.CutSuffix(s.Name, "_sum"); ok {
			h := hists[base]
			if h == nil {
				h = &histo{}
				hists[base] = h
			}
			h.sum = s.Value
			continue
		}
		if base, ok := strings.CutSuffix(s.Name, "_count"); ok {
			h := hists[base]
			if h == nil {
				h = &histo{}
				hists[base] = h
			}
			h.count = s.Value
			continue
		}
		name := s.Name
		if len(s.Labels) > 0 {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pairs := make([]string, len(keys))
			for i, k := range keys {
				pairs[i] = k + "=" + s.Labels[k]
			}
			name += "{" + strings.Join(pairs, ",") + "}"
		}
		lines = append(lines, fmt.Sprintf("%-58s %s", name, formatMetric(s.Value)))
	}
	for base, h := range hists {
		mean := "-"
		if h.count > 0 {
			mean = formatMetric(h.sum / h.count)
		}
		lines = append(lines, fmt.Sprintf("%-58s count %s, mean %s", base, formatMetric(h.count), mean))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// formatMetric prints integral values without an exponent and everything
// else with sensible precision.
func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}
