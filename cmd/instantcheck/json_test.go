package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"instantcheck"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTable1JSONGolden pins the -json output shape: a fixed-seed small
// campaign must serialize byte-identically to the checked-in golden file.
// The golden regenerates with: go test ./cmd/instantcheck -run Golden -update
func TestTable1JSONGolden(t *testing.T) {
	cfg := instantcheck.ExperimentConfig{
		Runs: 10, Threads: 4, Small: true, BaseSeed: 50, InputSeed: 7,
	}
	var rows []instantcheck.Table1Row
	for _, app := range []string{"fft", "barnes"} { // one det, one ndet workload
		row, err := instantcheck.Table1For(app, cfg)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		rows = append(rows, row)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "table1_small.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("JSON output drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}

	// The rows decode back by their JSON keys — the -json contract.
	var decoded []struct {
		App     string `json:"app"`
		DetAsIs bool   `json:"det_as_is"`
	}
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("golden does not round-trip: %v", err)
	}
	if len(decoded) != 2 || decoded[0].App != "fft" || decoded[1].App != "barnes" {
		t.Errorf("decoded rows = %+v", decoded)
	}
	if !decoded[0].DetAsIs || decoded[1].DetAsIs {
		t.Errorf("fft should be det as-is and barnes not: %+v", decoded)
	}
}

// TestAllSmallJSONGolden pins `instantcheck all -small -json` at the CLI's
// default campaign (30 runs, 8 threads, seeds 0): Table 1 for all 17
// workloads, Table 2, the Figure 5 and 8 distribution groups and the
// Figure 6 overhead rows. The output carries no timing, so it is byte-stable.
// Regenerate with: go test ./cmd/instantcheck -run AllSmallJSONGolden -update
func TestAllSmallJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got := captureStdout(t, func() error {
		return all(instantcheck.ExperimentConfig{Runs: 30, Threads: 8, Small: true}, true)
	})
	golden := filepath.Join("testdata", "all_small.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("`all -small -json` drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestExploreEffJSONGolden pins `instantcheck exploreeff -json` at the
// `make exploreeff` settings (small inputs, 40-run budget, 4 threads, input
// seed 1), which `all` does not cover.
// Regenerate with: go test ./cmd/instantcheck -run ExploreEffJSONGolden -update
func TestExploreEffJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got := captureStdout(t, func() error {
		return exploreeff(instantcheck.ExperimentConfig{Runs: 40, Threads: 4, Small: true, InputSeed: 1}, true)
	})
	golden := filepath.Join("testdata", "exploreeff_small.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("`exploreeff -small -json` drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	os.Stdout = saved
	w.Close()
	got := <-out
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return got
}
