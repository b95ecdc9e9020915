package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"instantcheck/internal/farm"
)

// remote is the client side of the checkfarm: it talks to a checkd daemon
// so that campaigns run on a farm machine while this binary only submits
// specs and renders results.
//
//	instantcheck remote [-server URL] submit <app> [flags]
//	instantcheck remote [-server URL] status <job>
//	instantcheck remote [-server URL] report <job>
//	instantcheck remote [-server URL] jobs
//	instantcheck remote [-server URL] hashlog <job>
//	instantcheck remote [-server URL] compare <job|@file> <job|@file>
//	instantcheck remote [-server URL] cancel <job>
//	instantcheck remote [-server URL] stats [-raw]
func remote(args []string) error {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8347", "checkd base URL")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: instantcheck remote [-server URL] <verb> [args]

verbs:
  submit <app> [-runs N] [-threads N] [-seed S] [-input S]
               [-scheme hwinc|swinc|swinc-nonatomic|swtr] [-hasher mix64|crc64]
               [-round-fp] [-isolate] [-small] [-bug semantic|atomicity|order]
               [-interval N] [-explore]
               [-strategy uniform|pct|race-directed|coverage]
               [-pct-depth N] [-wait]
          -explore submits a schedule-exploration job: the strategy hunts
          for a State-Hash divergence and stops at the first one (-runs is
          the search budget); -bug seeds the workload's Figure 7 bug
  status  <job>             one job's state and progress
  report  <job>             finished campaign's determinism report
  jobs                      list all jobs on the daemon
  hashlog <job>             per-checkpoint hash stream (canonical text form)
  compare <a> <b>           diff two hash logs; each side is a job id or
                            @file with a saved hashlog (e.g. from another host)
  cancel  <job>             cancel a queued or running job
  stats   [-raw]            daemon health and metrics snapshot (-raw dumps
                            the Prometheus text exposition verbatim)`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		os.Exit(2)
	}
	c := farm.NewClient(*server)
	verb, rest := rest[0], rest[1:]

	// Every daemon call runs under a signal-aware context: ^C aborts the
	// in-flight HTTP request (and Wait's poll loop) immediately instead of
	// waiting out the client's retry/backoff budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	one := func() (farm.JobID, error) {
		if len(rest) != 1 {
			return "", fmt.Errorf("remote %s: want exactly one job id", verb)
		}
		return farm.JobID(rest[0]), nil
	}
	switch verb {
	case "submit":
		return remoteSubmit(ctx, c, rest)
	case "status":
		id, err := one()
		if err != nil {
			return err
		}
		job, err := c.Job(ctx, id)
		if err != nil {
			return err
		}
		printJob(job)
		return nil
	case "jobs":
		jobs, err := c.Jobs(ctx)
		if err != nil {
			return err
		}
		for _, job := range jobs {
			printJob(job)
		}
		return nil
	case "report":
		id, err := one()
		if err != nil {
			return err
		}
		rep, err := c.Report(ctx, id)
		if err != nil {
			return err
		}
		printReport(rep)
		return nil
	case "hashlog":
		id, err := one()
		if err != nil {
			return err
		}
		text, err := c.HashLog(ctx, id)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case "compare":
		return remoteCompare(ctx, c, rest, os.Stdout)
	case "stats":
		return remoteStats(ctx, c, rest, os.Stdout)
	case "cancel":
		id, err := one()
		if err != nil {
			return err
		}
		ok, err := c.Cancel(ctx, id)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("job %s was already finished", id)
		}
		fmt.Printf("%s canceled\n", id)
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("remote: unknown verb %q", verb)
	}
}

// remoteCompare diffs two hash logs here, not on the daemon, and prints
// the answer to w. Each side is a job, whose log is fetched, or "@path", a
// saved log (e.g. from another host).
func remoteCompare(ctx context.Context, c *farm.Client, args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("remote compare: want two sides (job id or @file)")
	}
	var sides [2][]farm.HashLogLine
	for i, arg := range args {
		var err error
		if sides[i], err = compareSide(ctx, c, arg); err != nil {
			return fmt.Errorf("remote compare: side %c (%s): %w", 'a'+i, arg, err)
		}
	}
	res := farm.CompareHashLogs(sides[0], sides[1])
	if res.Equal {
		fmt.Fprintf(w, "equal: %d runs, hash-identical\n", res.RunsCompared)
		return nil
	}
	// DifferingRuns also lists the runs one log lacks, which were never
	// compared.
	fmt.Fprintf(w, "DIFFER: %d/%d compared runs diverge",
		len(res.DifferingRuns)-len(res.OnlyA)-len(res.OnlyB), res.RunsCompared)
	if len(res.OnlyA) > 0 {
		fmt.Fprintf(w, ", %d runs in a only", len(res.OnlyA))
	}
	if len(res.OnlyB) > 0 {
		fmt.Fprintf(w, ", %d runs in b only", len(res.OnlyB))
	}
	fmt.Fprintf(w, " (a has %d runs, b has %d)\n", res.RunsA, res.RunsB)
	if res.First != nil {
		fmt.Fprintf(w, "first divergence: run %d checkpoint %d (%s): %s vs %s\n",
			res.First.Run+1, res.First.Ordinal, res.First.Label, res.First.A, res.First.B)
	}
	return nil
}

// compareSide reads one side of a compare: "@path" parses a saved hash
// log, anything else fetches the named job's.
func compareSide(ctx context.Context, c *farm.Client, arg string) ([]farm.HashLogLine, error) {
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return farm.ParseHashLog(f)
	}
	text, err := c.HashLog(ctx, farm.JobID(arg))
	if err != nil {
		return nil, err
	}
	return farm.ParseHashLog(strings.NewReader(text))
}

func remoteSubmit(ctx context.Context, c *farm.Client, args []string) error {
	fs := flag.NewFlagSet("remote submit", flag.ExitOnError)
	runs := fs.Int("runs", 0, "test runs per campaign (daemon default 30)")
	threads := fs.Int("threads", 0, "worker threads per run (daemon default 8)")
	seed := fs.Int64("seed", 0, "base schedule seed")
	input := fs.Int64("input", 0, "input seed for replayed library calls")
	scheme := fs.String("scheme", "", "hashing scheme: hwinc (default), swinc, swinc-nonatomic, swtr")
	hasher := fs.String("hasher", "", "location hash: mix64 (default) or crc64")
	roundFP := fs.Bool("round-fp", false, "round FP values before hashing")
	isolate := fs.Bool("isolate", false, "apply the workload's small-structure ignore set")
	small := fs.Bool("small", false, "reduced inputs (fast)")
	interval := fs.Int("interval", 0, "mean operations between forced preemptions (0: scheduler default)")
	explore := fs.Bool("explore", false, "submit an exploration job (hunt for a divergence) instead of a check campaign")
	strategy := fs.String("strategy", "", "exploration strategy: uniform (default), pct, race-directed or coverage")
	pctDepth := fs.Int("pct-depth", 0, "priority-change points for the pct strategy (0: default)")
	bug := fs.String("bug", "", "seed the workload's Figure 7 bug: semantic, atomicity or order")
	wait := fs.Bool("wait", false, "block until the job finishes and print its report")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: instantcheck remote submit <app> [flags]")
	}
	app := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	kind := ""
	if *explore {
		kind = "explore"
	} else if *strategy != "" || *pctDepth != 0 {
		return fmt.Errorf("remote submit: -strategy and -pct-depth require -explore")
	}
	job, err := c.Submit(ctx, farm.JobSpec{
		App:            app,
		Runs:           *runs,
		Threads:        *threads,
		Seed:           *seed,
		InputSeed:      *input,
		Scheme:         *scheme,
		Hasher:         *hasher,
		RoundFP:        *roundFP,
		Isolate:        *isolate,
		Small:          *small,
		SwitchInterval: *interval,
		Kind:           kind,
		Strategy:       *strategy,
		PCTDepth:       *pctDepth,
		Bug:            *bug,
	})
	if err != nil {
		return err
	}
	printJob(job)
	if !*wait {
		return nil
	}
	job, err = c.Wait(ctx, job.ID, 500*time.Millisecond)
	if err != nil {
		return err
	}
	printJob(job)
	if job.State != farm.JobDone {
		return fmt.Errorf("job %s finished as %s: %s", job.ID, job.State, job.Error)
	}
	rep, err := c.Report(ctx, job.ID)
	if err != nil {
		return err
	}
	printReport(rep)
	return nil
}

func printJob(job *farm.Job) {
	progress := ""
	if job.RunsTotal > 0 {
		progress = fmt.Sprintf("  %d/%d runs", job.RunsDone, job.RunsTotal)
	}
	msg := ""
	if job.Error != "" {
		msg = "  " + job.Error
	}
	fmt.Printf("%-8s %-9s %-14s%s%s\n", job.ID, job.State, job.Spec.App, progress, msg)
}

func printReport(rep *farm.Report) {
	if out := rep.Explore; out != nil {
		verdict := fmt.Sprintf("no divergence in %d runs (budget %d)", out.Runs, out.Budget)
		if out.Found {
			verdict = fmt.Sprintf("DIVERGENCE at run %d of %d (budget %d)", out.DivergedRun, out.Runs, out.Budget)
		}
		fmt.Printf("%s: explore[%s]: %s\n", rep.Program, out.Strategy, verdict)
		fmt.Printf("  %d distinct (checkpoint, hash) outcomes, %d distinct final hashes\n",
			out.DistinctOutcomes, out.DistinctFinals)
		if out.Hits > 0 {
			fmt.Printf("  %d directed preemptions at hinted racy sites\n", out.Hits)
		}
		return
	}
	verdict := "DETERMINISTIC"
	if !rep.Deterministic {
		verdict = "NONDETERMINISTIC"
		if rep.DetAtEnd {
			verdict = "internally nondeterministic, deterministic at end"
		}
	}
	fmt.Printf("%s: %s  (%d runs, %d checkpoints: %d det, %d ndet)\n",
		rep.Program, verdict, rep.Runs, rep.Points, rep.DetPoints, rep.NDetPoints)
	if rep.ShapeMismatch {
		fmt.Println("  runs disagree on checkpoint count (shape mismatch)")
	}
	if rep.FirstNDetRun > 0 {
		fmt.Printf("  first nondeterminism detected in run %d\n", rep.FirstNDetRun)
	}
	if rep.OutputDistinct > 1 {
		fmt.Printf("  %d distinct external outputs\n", rep.OutputDistinct)
	}
	for _, st := range rep.Stats {
		if st.Deterministic {
			continue
		}
		fmt.Printf("  ndet checkpoint %2d (%s): hash distribution %v\n", st.Ordinal, st.Label, st.Distribution)
	}
}
