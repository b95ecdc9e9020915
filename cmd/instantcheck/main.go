// Command instantcheck drives the InstantCheck reproduction: it checks the
// determinism of the paper's 17 evaluation workloads and regenerates the
// evaluation tables and figures (MICRO 2010, §7).
//
// Usage:
//
//	instantcheck list                     # the 17 workloads
//	instantcheck check <app> [flags]      # characterize one workload
//	instantcheck races <app> [flags]      # §6.1: classify its data races
//	instantcheck table1 [flags]           # Table 1: determinism characteristics
//	instantcheck table2 [flags]           # Table 2: seeded-bug detection
//	instantcheck fig5   [flags]           # Figure 5: nondeterminism distributions
//	instantcheck fig6   [flags]           # Figure 6: instruction-count overheads
//	instantcheck fig8   [flags]           # Figure 8: seeded-bug distributions
//	instantcheck exploreeff [flags]       # exploration-strategy efficiency
//	instantcheck all    [flags]           # everything above
//	instantcheck statediff <app> [flags]  # §2.3 bug localization (see statediff.go)
//	instantcheck remote [-server URL] ... # drive a checkd daemon (see remote.go)
//
// Flags: -runs N and -threads N (0, the default, selects the experiment's
// own: 30 runs on 8 threads per campaign, 10 runs for races, a 40-run
// budget on 4 threads for exploreeff), -small (reduced inputs), -json
// (print the rows as JSON), -seed S, -input S. statediff takes -runs,
// -threads and -small, plus -bug kind (seed the workload's Figure 7 bug)
// and -round (FP rounding).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"instantcheck"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "remote" || cmd == "statediff" {
		// Both take their own flags; see remote.go and statediff.go.
		var err error
		if cmd == "remote" {
			err = remote(os.Args[2:])
		} else {
			err = statediff(os.Args[2:], os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "instantcheck:", err)
			os.Exit(1)
		}
		return
	}
	target, cfg, asJSON, err := parseArgs(cmd, os.Args[2:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch cmd {
	case "list":
		err = list()
	case "check":
		err = check(target, cfg)
	case "races":
		err = races(target, cfg)
	case "table1":
		err = table1(cfg, asJSON)
	case "table2":
		err = table2(cfg, asJSON)
	case "fig5":
		err = fig5(cfg, asJSON)
	case "fig6":
		err = fig6(cfg, asJSON)
	case "fig8":
		err = fig8(cfg, asJSON)
	case "exploreeff":
		err = exploreeff(cfg, asJSON)
	case "all":
		err = all(cfg, asJSON)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "instantcheck:", err)
		os.Exit(1)
	}
}

// parseArgs splits an experiment verb's arguments into its workload (check
// and races take one) and its flags. A malformed flag exits with status 2.
func parseArgs(cmd string, args []string) (target string, cfg instantcheck.ExperimentConfig, asJSON bool, err error) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	runs := fs.Int("runs", 0, "test runs per campaign (0: the experiment's default)")
	threads := fs.Int("threads", 0, "worker threads per run (0: the experiment's default)")
	small := fs.Bool("small", false, "reduced inputs (fast)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	seed := fs.Int64("seed", 0, "base schedule seed")
	input := fs.Int64("input", 0, "input seed for replayed library calls")
	if cmd == "check" || cmd == "races" {
		if len(args) == 0 {
			return "", cfg, false, fmt.Errorf("usage: instantcheck %s <app> [flags]", cmd)
		}
		target, args = args[0], args[1:]
	}
	fs.Parse(args) // ExitOnError: returns only on success
	cfg = instantcheck.ExperimentConfig{
		Runs: *runs, Threads: *threads, Small: *small,
		BaseSeed: *seed, InputSeed: *input,
	}
	return target, cfg, *jsonOut, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: instantcheck <list|check <app>|races <app>|table1|table2|fig5|fig6|fig8|exploreeff|all> [-runs N] [-threads N] [-small] [-json] [-seed S] [-input S]
       (-runs 0 and -threads 0, the defaults, select the experiment's default)
       instantcheck statediff <app> [-runs N] [-threads N] [-small] [-bug semantic|atomicity|order] [-round]
       instantcheck remote [-server URL] <submit|status|report|jobs|hashlog|compare|cancel|stats> [args]`)
}

// emitJSON prints v, the experiment's rows, as indented JSON.
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// races runs the §6.1 application: detect data races and classify each
// benign or harmful by state comparison.
func races(name string, cfg instantcheck.ExperimentConfig) error {
	app := instantcheck.WorkloadByName(name)
	if app == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cl, err := instantcheck.ClassifyRaces(app.Builder(instantcheck.WorkloadOptions{
		Threads: cfg.Threads, Small: cfg.Small,
	}), instantcheck.RaceConfig{
		Threads: orDefault(cfg.Threads, 8), Runs: orDefault(cfg.Runs, 10),
		BaseSeed: cfg.BaseSeed, InputSeed: cfg.InputSeed, RoundFP: app.UsesFP,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d races, %d benign, %d harmful (externally deterministic: %v)\n",
		name, len(cl.Verdicts), cl.BenignCount(), len(cl.Verdicts)-cl.BenignCount(), cl.Deterministic)
	for _, v := range cl.Verdicts {
		verdict := "benign "
		if !v.Benign {
			verdict = "HARMFUL"
		}
		fmt.Printf("  %s %-11s %s+%d (threads %d/%d)\n",
			verdict, v.Race.Kind, v.Race.Site, v.Race.Offset, v.Race.TidA, v.Race.TidB)
	}
	return nil
}

func list() error {
	fmt.Printf("%-14s %-9s %-3s %-14s %s\n", "APP", "SOURCE", "FP", "CLASS", "NOTES")
	for _, a := range instantcheck.Workloads() {
		notes := ""
		if a.HostsBug != instantcheck.BugNone {
			notes = "hosts seeded bug: " + a.HostsBug.String()
		}
		if a.Name == "streamcluster" {
			notes = "carries the real order-violation bug (use FixBug)"
		}
		fmt.Printf("%-14s %-9s %-3s %-14s %s\n", a.Name, a.Source, yn(a.UsesFP), a.ExpectedClass, notes)
	}
	return nil
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

func check(name string, cfg instantcheck.ExperimentConfig) error {
	start := time.Now()
	row, err := instantcheck.Table1For(name, cfg)
	if err != nil {
		return err
	}
	fmt.Print(instantcheck.FormatTable1([]instantcheck.Table1Row{row}))
	fmt.Printf("\nclass: %v   (%.1fs)\n", row.Class, time.Since(start).Seconds())
	if ndet := row.Char.Best().NDetDistGroups(); len(ndet) > 0 {
		fmt.Println("nondeterministic checkpoint distributions:")
		fmt.Print(instantcheck.FormatDistributions([]instantcheck.Distribution{
			{App: name, Groups: ndet},
		}))
	}
	return nil
}

// all prints every table and figure, each followed by a blank line.
func all(cfg instantcheck.ExperimentConfig, asJSON bool) error {
	for _, f := range []func(instantcheck.ExperimentConfig, bool) error{table1, table2, fig5, fig6, fig8} {
		if err := f(cfg, asJSON); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func table1(cfg instantcheck.ExperimentConfig, asJSON bool) error {
	start := time.Now()
	rows, err := instantcheck.Table1(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(rows)
	}
	fmt.Printf("Table 1: determinism characteristics (%d runs, %d threads)\n", orDefault(cfg.Runs, 30), orDefault(cfg.Threads, 8))
	fmt.Print(instantcheck.FormatTable1(rows))
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

func table2(cfg instantcheck.ExperimentConfig, asJSON bool) error {
	rows, err := instantcheck.Table2(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(rows)
	}
	fmt.Println("Table 2: seeded-bug detection")
	fmt.Print(instantcheck.FormatTable2(rows))
	return nil
}

// exploreeff runs the exploration-efficiency experiment: median
// runs-to-detect for each schedule-exploration strategy on the three
// seeded Figure 7 bugs, at equal budget (-runs is the per-trial budget).
func exploreeff(cfg instantcheck.ExperimentConfig, asJSON bool) error {
	start := time.Now()
	rows, err := instantcheck.ExploreEfficiency(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(rows)
	}
	fmt.Println("Exploration efficiency: median runs to first State-Hash divergence")
	fmt.Print(instantcheck.FormatExploreEfficiency(rows))
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

func fig5(cfg instantcheck.ExperimentConfig, asJSON bool) error {
	ds, err := instantcheck.Figure5(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(ds)
	}
	fmt.Println("Figure 5: distribution of nondeterminism points")
	fmt.Print(instantcheck.FormatDistributions(ds))
	return nil
}

func fig6(cfg instantcheck.ExperimentConfig, asJSON bool) error {
	rows, err := instantcheck.Figure6(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(rows)
	}
	fmt.Println("Figure 6: instructions executed, normalized to Native")
	fmt.Print(instantcheck.FormatFigure6(rows))
	return nil
}

func fig8(cfg instantcheck.ExperimentConfig, asJSON bool) error {
	ds, err := instantcheck.Figure8(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(ds)
	}
	fmt.Println("Figure 8: seeded-bug nondeterminism distributions")
	fmt.Print(instantcheck.FormatDistributions(ds))
	return nil
}

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}
