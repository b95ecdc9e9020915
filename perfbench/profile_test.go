package main

import (
	"os"
	"reflect"
	"testing"
)

// TestAttributeRawFixture pins the layer split of a canned `pprof -raw`
// listing: innermost repo frame first, the coroutine and GC rules before
// it, the internal/sim split, replay bundles under fleet, the harness's
// own frames, and the HTTP and scheduler fallbacks for stacks with no
// repo frame. A goroutine of standard-library code alone stays
// unattributed although its stack, like every goroutine's, ends in
// runtime.goexit.
func TestAttributeRawFixture(t *testing.T) {
	f, err := os.Open("testdata/raw.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := parseRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 11 {
		t.Fatalf("parsed %d samples, want 11", len(p.samples))
	}
	if got := p.locs[3][0].fn; got != "iter.Pull[go.shape.struct {}].func1" {
		t.Errorf("generic function name parsed as %q", got)
	}
	if got := len(p.locs[1]); got != 2 {
		t.Errorf("location 1 has %d inlined frames, want 2", got)
	}
	want := map[string]int64{
		"mem":           30e6, // LoadFast inlined into an accessor: innermost frame wins
		"runtime.gc":    20e6, // mallocgc under an app frame
		"sched.coro":    10e6, // coroswitch on the scheduler's stack
		"sim.pc":        40e6, // frame-pointer unwinding under Thread.PC
		"fleet":         10e6, // replay bundle marshaling
		"harness":       20e6, // the benchmark's own sha256 of a hash log
		"http":          10e6, // HTTP server plumbing with no repo frame
		"runtime.sched": 10e6, // the Go scheduler looking for work
		"":              20e6, // a lone runtime frame; stdlib code under runtime.goexit
		"farm":          10e6, // innermost repo frame beats its sim caller
	}
	if got := p.attribute(); !reflect.DeepEqual(got, want) {
		t.Errorf("attribute() = %v, want %v", got, want)
	}
}

func TestLayerOfSimSplit(t *testing.T) {
	for fn, want := range map[string]string{
		"instantcheck/internal/sim.(*Thread).Store":       "sim.accessor",
		"instantcheck/internal/sim.(*Thread).Lock.func1":  "sim.accessor",
		"instantcheck/internal/sim.(*Thread).CallersPC":   "sim.pc",
		"instantcheck/internal/sim.SitePos":               "sim.pc",
		"instantcheck/internal/sim.(*Machine).checkpoint": "sim.machine",
		"instantcheck/internal/replay.(*Env).Next":        "replay",
		"instantcheck/internal/analysis.Run":              "",
		"runtime.gcBgMarkWorker":                          "runtime.gc",
		"runtime.coroswitch":                              "sched.coro",
	} {
		if got := layerOf(frame{fn: fn, file: "/src/x.go:1:0"}); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 34)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q, v, ok := tail(xs)
	if !ok || q != 70 || v != 24 {
		t.Errorf("tail(1..34) = p%d %v %v, want p70 24 true", q, v, ok)
	}
	if _, _, ok := tail(xs[:17]); ok {
		t.Error("tail of 17 samples lies below the median and must be omitted")
	}
}
