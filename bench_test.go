package instantcheck

import (
	"context"
	"fmt"
	"testing"
	"time"

	"instantcheck/internal/racefilter"
	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§7) at full scale — 30 runs × 8 threads per campaign, the
// paper's setup — and report the wall-clock cost of doing so. Run
//
//	go test -bench=. -benchmem
//
// to reproduce everything; the per-experiment outputs themselves are
// printed by `go run ./cmd/instantcheck all`.

var fullScale = ExperimentConfig{} // zero value = 30 runs, 8 threads, full inputs

// quickScale keeps per-app benchmarks affordable while staying at full
// input size (only the run count shrinks).
var quickScale = ExperimentConfig{Runs: 6}

// BenchmarkTable1 regenerates Table 1 (determinism characteristics of all
// 17 applications: classes, first-nondeterministic run, FP-rounding and
// isolation impact, dynamic det/ndet checking points).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table1(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 17 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkTable1App characterizes each application individually (the
// per-row cost of Table 1), at a reduced run count.
func BenchmarkTable1App(b *testing.B) {
	for _, app := range Workloads() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Table1For(app.Name, quickScale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 regenerates Table 2 (detection of the three Figure 7
// seeded bugs: det/ndet points and first detecting run).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table2(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.NDetPoints == 0 {
				b.Fatalf("%s: seeded bug not detected", r.App)
			}
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (distributions of distinct states
// per checkpoint group for ocean/sphinx3/canneal).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := Figure5(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) != 3 {
			b.Fatal("figure 5 shape")
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (instruction counts of Native /
// HW-Inc / SW-Inc-Ideal / SW-Tr-Ideal, normalized to Native, plus GEOM).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Figure6(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		geo := rows[len(rows)-1]
		if geo.HWInc > 1.02 {
			b.Fatalf("HW-Inc geomean %.4f; the paper reports ≈1.003", geo.HWInc)
		}
	}
}

// BenchmarkFigure6Deletion regenerates the sphinx3 deletion study (§7.3:
// 4.5×/55×/438× in the paper; ordering HW ≪ SW-Inc ≪ SW-Tr).
func BenchmarkFigure6Deletion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ov, err := Figure6Deletion(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		if !(ov.HWInc < ov.SWIncIdeal && ov.SWIncIdeal < ov.SWTrIdeal) {
			b.Fatalf("deletion ordering violated: %+v", ov)
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8 (nondeterminism distributions for
// the seeded bugs).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := Figure8(fullScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) != 3 {
			b.Fatal("figure 8 shape")
		}
	}
}

// BenchmarkCheckApp measures one full checking campaign (30 runs) per
// workload under HW-InstantCheck_Inc — the paper's primary configuration.
func BenchmarkCheckApp(b *testing.B) {
	for _, app := range Workloads() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := Campaign{Runs: 30, Threads: 8, RoundFP: app.UsesFP, Ignore: app.IgnoreSet()}
				if _, err := Check(camp, app.Builder(WorkloadOptions{})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckAppTr measures one full checking campaign (30 runs) per
// workload under SW-InstantCheck_Tr, the scheme whose checkpoint sweeps
// dirty-page delta hashing accelerates.
func BenchmarkCheckAppTr(b *testing.B) {
	for _, app := range Workloads() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := Campaign{
					Runs: 30, Threads: 8, Scheme: SWTr,
					RoundFP: app.UsesFP, Ignore: app.IgnoreSet(),
				}
				if _, err := Check(camp, app.Builder(WorkloadOptions{})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckAppSWInc measures one full checking campaign (30 runs) per
// workload under SW-InstantCheck_Inc, the scheme whose per-store software
// hashing the per-thread store buffer batches. It asserts the batch path
// was actually exercised, so the bench-smoke gate fails on a silent
// regression to inline per-store hashing.
func BenchmarkCheckAppSWInc(b *testing.B) {
	for _, app := range Workloads() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := Campaign{
					Runs: 30, Threads: 8, Scheme: SWInc,
					RoundFP: app.UsesFP, Ignore: app.IgnoreSet(),
				}
				rep, err := Check(camp, app.Builder(WorkloadOptions{}))
				if err != nil {
					b.Fatal(err)
				}
				var flushes uint64
				for _, r := range rep.Runs {
					flushes += r.MHMStats.BufferFlushes
				}
				if flushes == 0 {
					b.Fatal("campaign never drained a store buffer")
				}
			}
		})
	}
}

// BenchmarkDetectorRun measures one happens-before detection run per
// workload — a fresh epoch detector and machine per iteration, the
// cross-check's configuration (4 threads, small inputs) — against the
// identical run with no listener attached (detector=off, the
// plain-check-run control). Detector runs assert the detector actually
// observed the run's accesses.
func BenchmarkDetectorRun(b *testing.B) {
	for _, app := range Workloads() {
		app := app
		build := app.Builder(WorkloadOptions{Threads: 4, Small: true})
		for _, mode := range []string{"on", "off"} {
			mode := mode
			b.Run(fmt.Sprintf("%s/detector=%s", app.Name, mode), func(b *testing.B) {
				b.ReportAllocs()
				env := replay.NewEnv(1)
				addrLog := replay.NewAddrLog()
				for i := 0; i < b.N; i++ {
					cfg := sim.Config{
						Threads: 4, ScheduleSeed: int64(i + 1),
						Scheme: sim.HWInc, Env: env, AddrLog: addrLog,
					}
					var det *racefilter.Detector
					if mode == "on" {
						det = racefilter.NewDetector(4)
						cfg.Events = det
					}
					m := sim.NewMachine(cfg)
					if _, err := m.Run(build()); err != nil {
						b.Fatal(err)
					}
					if det == nil {
						continue
					}
					// Nonzero access counts prove the epoch shadow pages saw
					// this run's events. Fast-path hits are app-dependent
					// (barrier-phased apps can touch every word exactly once
					// per epoch), so bench-smoke pins ReadFast on a workload
					// with same-epoch repeats rather than asserting it here.
					st := det.Stats()
					if st.ReadFast+st.ReadSlow+st.WriteFast+st.WriteSlow == 0 {
						b.Fatal("epoch detector saw no accesses")
					}
				}
			})
		}
	}
}

// BenchmarkHasherAblation compares the two location hashes on a real
// checking campaign — the design-choice ablation for DESIGN.md's "h is
// pluggable" decision. Both must yield identical verdicts.
func BenchmarkHasherAblation(b *testing.B) {
	app := WorkloadByName("fft")
	for _, h := range []struct {
		name string
		h    Hasher
	}{{"mix64", NewMix64Hasher()}, {"crc64", NewCRC64Hasher()}} {
		h := h
		b.Run(h.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := Campaign{Runs: 10, Threads: 8, Hasher: h.h}
				rep, err := Check(camp, app.Builder(WorkloadOptions{}))
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Deterministic() {
					b.Fatal("verdict changed under hasher ablation")
				}
			}
		})
	}
}

// BenchmarkSchemeAblation compares the runtime cost of the machine itself
// under each hashing scheme on one workload — the simulator-level analogue
// of Figure 6 (which models target-machine instructions instead).
func BenchmarkSchemeAblation(b *testing.B) {
	app := WorkloadByName("ocean")
	for _, scheme := range []Scheme{Native, HWInc, SWInc, SWTr} {
		scheme := scheme
		b.Run(fmt.Sprint(scheme), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMachine(MachineConfig{
					Threads: 8, ScheduleSeed: int64(i), Scheme: scheme,
					RoundFP: true,
				})
				if _, err := m.Run(app.Build(WorkloadOptions{Small: true})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSystematicPruning measures the §6.2 application: exploring the
// schedule tree of a lock-commutative program with and without state-hash
// pruning. The pruned run must cover the same final states in far fewer
// schedules.
func BenchmarkSystematicPruning(b *testing.B) {
	app := WorkloadByName("radix")
	build := app.Builder(WorkloadOptions{Threads: 2, Small: true})
	for _, prune := range []bool{false, true} {
		prune := prune
		name := "unpruned"
		if prune {
			name = "pruned"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Systematic(build, SystematicOptions{
					Threads: 2, MaxRuns: 200, MaxDecisions: 10, Prune: prune,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Deterministic() {
					b.Fatal("verdict")
				}
			}
		})
	}
}

// BenchmarkReplaySearch measures the §6.3 application: searching candidate
// schedules against a recorded hash log with early mismatch cutoff.
func BenchmarkReplaySearch(b *testing.B) {
	app := WorkloadByName("waterSP")
	build := app.Builder(WorkloadOptions{Threads: 4, Small: true, Bug: BugAtomicity})
	log, err := RecordReplayLog(build, ReplayConfig{Threads: 4, RoundFP: true}, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Search(build, int64(1000+i*100), 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRaceClassification measures the §6.1 application end to end on
// volrend (detection + benign/harmful classification).
func BenchmarkRaceClassification(b *testing.B) {
	app := WorkloadByName("volrend")
	build := app.Builder(WorkloadOptions{Threads: 4, Small: true})
	for i := 0; i < b.N; i++ {
		cl, err := ClassifyRaces(build, RaceConfig{Threads: 4, Runs: 8})
		if err != nil {
			b.Fatal(err)
		}
		if cl.BenignCount() != len(cl.Verdicts) {
			b.Fatal("volrend races must all be benign")
		}
	}
}

// BenchmarkFarmThroughput compares a checking campaign on a replay pool of
// one (the paper's loop: one run after another) against wider pools on
// the same campaign. Runs of a campaign are independent once the recording
// run finishes, so wall-clock should shrink toward 1/width while the
// report stays identical — the farm's run-level scaling claim.
func BenchmarkFarmThroughput(b *testing.B) {
	app := WorkloadByName("radix")
	camp := Campaign{Runs: 30, Threads: 8}
	var replays []int
	for run := 1; run < camp.Runs; run++ {
		replays = append(replays, run)
	}
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := camp.NewRunner(app.Builder(WorkloadOptions{}))
				if err != nil {
					b.Fatal(err)
				}
				results := make([]*sim.Result, camp.Runs)
				if results[0], err = r.Record(); err != nil {
					b.Fatal(err)
				}
				err = r.ReplayAll(context.Background(), replays, width, func(run int, res *sim.Result, _ time.Duration) error {
					results[run] = res
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := camp.Assemble(r.Name(), results)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Deterministic() {
					b.Fatal("radix verdict changed under parallel execution")
				}
			}
		})
	}
}

// BenchmarkSwitchIntervalAblation measures how the scheduler's preemption
// density affects checking cost (and confirms verdicts are stable across
// it).
func BenchmarkSwitchIntervalAblation(b *testing.B) {
	app := WorkloadByName("radix")
	for _, interval := range []int{1, 4, 16, 64} {
		interval := interval
		b.Run(fmt.Sprintf("interval=%d", interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				camp := Campaign{Runs: 6, Threads: 8, SwitchInterval: interval}
				rep, err := Check(camp, app.Builder(WorkloadOptions{}))
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Deterministic() {
					b.Fatal("radix verdict changed with preemption density")
				}
			}
		})
	}
}
