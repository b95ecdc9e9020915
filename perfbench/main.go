// Command perfbench is the InstantCheck benchmark: it boots checkd inside
// its own process, drives one workload through it with a closed-loop
// client, checks every result against recorded references, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload <table1|fleet-tr|hunt|races> --seed N --seconds S --trace <0|1>
//	perfbench --workload W --seed N --record-refs   # write W's references for seed N
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it list every
// metric with its unit and sample count. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string // printed after the sample count (tail percentile, ...)
}

// outcome is what one benchmark invocation reports.
type outcome struct {
	attempted, failed int
	gates             []string // failed mechanism gates
	weakCheck         bool     // no reference for this seed
	metrics           []metric // printed, in order
	json              []string // names that go into the JSON line
	sentinel          map[string]float64
	extra             []string // extra lines printed before the table
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: shifts every schedule seed, inputs stay fixed")
	seconds := flag.Float64("seconds", 20, "measurement length of an untraced run")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for stores, profiles and spans")
	refs := flag.String("refs", filepath.Join("perfbench", "refs"), "directory of the recorded references")
	record := flag.Bool("record-refs", false, "record the references of --seed instead of measuring")
	flag.Parse()

	w := workloadByName(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, out: *out, refsDir: *refs}
	if *record {
		if err := b.recordRefs(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var o *outcome
	var err error
	if *trace == 1 {
		o, err = b.traced()
	} else {
		o, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := o.print(os.Stdout, w.name, *seed, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// print writes the metric table and, last, the JSON result line.
func (o *outcome) print(f *os.File, workload string, seed int64, trace int) error {
	fmt.Fprintf(f, "perfbench workload=%s seed=%d trace=%d attempted=%d failed=%d\n",
		workload, seed, trace, o.attempted, o.failed)
	if o.weakCheck {
		fmt.Fprintf(f, "note: no recorded reference for seed %d; checked only the seed-independent facts\n", seed)
	}
	for _, g := range o.gates {
		fmt.Fprintf(f, "GATE FAILED: %s\n", g)
	}
	for _, l := range o.extra {
		fmt.Fprintln(f, l)
	}
	for _, m := range o.metrics {
		line := fmt.Sprintf("  %-32s %14.6g %-8s samples=%d", m.name, m.value, m.unit, m.samples)
		if m.note != "" {
			line += " " + m.note
		}
		fmt.Fprintln(f, line)
	}
	if o.sentinel != nil {
		keys := sortedKeys(o.sentinel)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + strconv.FormatFloat(o.sentinel[k], 'f', -1, 64)
		}
		fmt.Fprintf(f, "sentinel %s\n", strings.Join(parts, " "))
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := make(map[string]metric, len(o.metrics))
	for _, m := range o.metrics {
		byName[m.name] = m
	}
	ms := make(map[string]jsonMetric, len(o.json))
	for _, name := range o.json {
		m, ok := byName[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		ms[name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0 && len(o.gates) == 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}
