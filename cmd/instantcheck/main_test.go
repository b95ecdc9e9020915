package main

import (
	"testing"

	"instantcheck"
)

// smallCfg keeps CLI end-to-end tests fast.
var smallCfg = instantcheck.ExperimentConfig{Runs: 6, Threads: 4, Small: true}

func TestListCommand(t *testing.T) {
	if err := list(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCommand(t *testing.T) {
	if err := check("volrend", smallCfg); err != nil {
		t.Fatal(err)
	}
	if err := check("nosuchapp", smallCfg); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRacesCommand(t *testing.T) {
	if err := races("volrend", smallCfg); err != nil {
		t.Fatal(err)
	}
	if err := races("nosuchapp", smallCfg); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTableAndFigureCommands(t *testing.T) {
	for name, f := range map[string]func(instantcheck.ExperimentConfig, bool) error{
		"table2": table2,
		"fig5":   fig5,
		"fig6":   fig6,
		"fig8":   fig8,
	} {
		for _, asJSON := range []bool{false, true} {
			if err := f(smallCfg, asJSON); err != nil {
				t.Fatalf("%s (json=%v): %v", name, asJSON, err)
			}
		}
	}
}

// TestTable1Command runs the full driver at test scale.
func TestTable1Command(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := table1(smallCfg, true); err != nil {
		t.Fatal(err)
	}
}

// TestFlagDefaultsDeferToExperiment pins that -runs and -threads default to
// 0, so each verb falls back to its own experiment's default: races
// classifies over 10 schedules and exploreeff searches a 40-run budget on 4
// threads, not the campaign verbs' 30 runs on 8 threads.
func TestFlagDefaultsDeferToExperiment(t *testing.T) {
	for _, args := range [][]string{{"races", "volrend"}, {"exploreeff", "-small"}} {
		target, cfg, _, err := parseArgs(args[0], args[1:])
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if cfg.Runs != 0 || cfg.Threads != 0 {
			t.Errorf("%v parsed to %d runs, %d threads; want 0, 0 (the experiment's default)", args, cfg.Runs, cfg.Threads)
		}
		if args[0] == "races" && target != "volrend" {
			t.Errorf("races target = %q; want volrend", target)
		}
	}
	if _, _, _, err := parseArgs("races", nil); err == nil {
		t.Error("races without a workload accepted")
	}
}

// TestRacesRejectsBadCounts checks that races fails, rather than printing
// an empty classification or panicking, on a negative run count and on
// thread counts the race detector cannot hold.
func TestRacesRejectsBadCounts(t *testing.T) {
	for _, cfg := range []instantcheck.ExperimentConfig{
		{Runs: -1, Small: true},
		{Threads: -2, Small: true},
		{Threads: 255, Small: true},
	} {
		if err := races("volrend", cfg); err == nil {
			t.Errorf("races accepted %+v", cfg)
		}
	}
}
