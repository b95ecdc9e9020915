package main

import (
	"reflect"
	"testing"
)

// TestSentinelRepeats runs the traced variant twice on the first ops of
// every workload and requires identical deterministic counts: they are
// what a change that only alters speed must leave unchanged, so they may
// not depend on timing either. The traced JSON line must also carry
// exactly BENCHMARK.json's per_layer metrics.
func TestSentinelRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	_, perLayer := benchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, seed: 3, out: t.TempDir(), refsDir: "refs"}
			ops := w.ops(b.seed)[:2]
			var first map[string]float64
			for i := 0; i < 2; i++ {
				o, err := b.tracedOps(ops)
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 {
					t.Fatalf("%d of %d ops failed", o.failed, o.attempted)
				}
				if len(o.sentinel) != len(sentinelNames) {
					t.Fatalf("sentinel has %d counts, want %d", len(o.sentinel), len(sentinelNames))
				}
				sameNames(t, "per_layer", o.json, perLayer)
				if i == 0 {
					first = o.sentinel
				} else if !reflect.DeepEqual(o.sentinel, first) {
					t.Errorf("sentinel changed between runs:\n first %v\nsecond %v", first, o.sentinel)
				}
			}
		})
	}
}
