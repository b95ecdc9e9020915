package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: harness prints %d metrics, BENCHMARK.json lists %d:\n%v\n%v", what, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: harness prints %q where BENCHMARK.json lists %q", what, g[i], w[i])
		}
	}
}

func TestEndToEndMatchesBenchmarkJSON(t *testing.T) {
	want, _ := benchmarkJSON(t)
	sameNames(t, "end_to_end", endToEnd, want)
}
