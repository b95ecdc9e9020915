// Command smoke runs the end-to-end smoke gates: named scenarios that boot
// real checkd and checkworker processes, drive jobs through the HTTP API
// and lint the live /metrics exposition.
//
//	smoke scenario...
//
// obs runs one campaign and requires the key series in the scrape; explore
// requires every search strategy to find its seeded Figure 7 bug; fleet
// SIGKILLs a worker mid-campaign and requires every report byte-identical
// to a single-node daemon's. The binaries are built once per invocation
// into a temporary work directory; a failing scenario keeps the directory
// (binaries, stores, worker caches) and prints the path of its part.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"instantcheck/internal/apps"
	"instantcheck/internal/farm"
	"instantcheck/internal/obs"
)

// scenarios maps each scenario name to its gate and the deadline its jobs
// must finish within.
var scenarios = map[string]struct {
	timeout time.Duration
	run     func(ctx context.Context, bin, dir string) error
}{
	"obs":     {2 * time.Minute, obsScenario},
	"explore": {5 * time.Minute, exploreScenario},
	"fleet":   {5 * time.Minute, fleetScenario},
}

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run executes the named scenarios in order and stops at the first
// failure. Naming no scenario, or an unknown one, is an error returned
// before anything is built.
func run(args []string) error {
	known := strings.Join(slices.Sorted(maps.Keys(scenarios)), ", ")
	if len(args) == 0 {
		return fmt.Errorf("usage: smoke scenario... (scenarios: %s)", known)
	}
	for _, name := range args {
		if _, ok := scenarios[name]; !ok {
			return fmt.Errorf("unknown scenario %q (scenarios: %s)", name, known)
		}
	}

	work, err := os.MkdirTemp("", "smoke")
	if err != nil {
		return err
	}
	bin := filepath.Join(work, "bin")
	if err := build(bin, slices.Contains(args, "fleet")); err != nil {
		os.RemoveAll(work)
		return err
	}
	for _, name := range args {
		dir, err := os.MkdirTemp(work, name+"-")
		if err != nil {
			return err
		}
		log.SetPrefix("smoke " + name + ": ")
		sc := scenarios[name]
		ctx, cancel := context.WithTimeout(context.Background(), sc.timeout)
		err = sc.run(ctx, bin, dir)
		cancel()
		if err != nil {
			return fmt.Errorf("%w\nwork directory kept: %s", err, dir)
		}
		log.Print("PASS")
		os.RemoveAll(dir)
	}
	return os.RemoveAll(work)
}

// build compiles checkd, and checkworker when the fleet scenario needs it,
// into the directory bin.
func build(bin string, worker bool) error {
	pkgs := []string{"./cmd/checkd"}
	if worker {
		pkgs = append(pkgs, "./cmd/checkworker")
	}
	cmd := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build %s: %w", strings.Join(pkgs, " "), err)
	}
	return nil
}

// startDaemon boots the checkd in bin on a free port over the given store,
// with extra flags, and waits up to 15s for /healthz. stop sends SIGTERM
// and waits for the process to exit.
func startDaemon(bin, store string, extra ...string) (c *farm.Client, stop func(), err error) {
	// A free port: bind :0, remember, release.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	daemon := exec.Command(filepath.Join(bin, "checkd"), append([]string{"-addr", addr, "-store", store}, extra...)...)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return nil, nil, fmt.Errorf("start checkd: %w", err)
	}
	stop = func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}
	c = farm.NewClient("http://" + addr)
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		h, err := c.Health(context.Background())
		if err == nil && h.Status == "ok" {
			return c, stop, nil
		}
		if time.Now().After(deadline) {
			stop()
			return nil, nil, fmt.Errorf("checkd not healthy after 15s: %v", err)
		}
	}
}

// runJob submits spec and waits for it to finish done.
func runJob(ctx context.Context, c *farm.Client, spec farm.JobSpec) (*farm.Job, error) {
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("submit %s: %w", spec.App, err)
	}
	return waitDone(ctx, c, job.ID)
}

// waitDone waits for job id to finish and requires it finished done.
func waitDone(ctx context.Context, c *farm.Client, id farm.JobID) (*farm.Job, error) {
	job, err := c.Wait(ctx, id, 50*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("wait %s: %w", id, err)
	}
	if job.State != farm.JobDone {
		return nil, fmt.Errorf("job %s (%s) finished as %s: %s", id, job.Spec.App, job.State, job.Error)
	}
	return job, nil
}

// scrape fetches /metrics, requires the exposition to lint clean, and
// parses it.
func scrape(c *farm.Client) ([]obs.Sample, error) {
	text, err := c.MetricsText(context.Background())
	if err != nil {
		return nil, err
	}
	if err := obs.Lint(strings.NewReader(text)); err != nil {
		return nil, fmt.Errorf("malformed exposition: %w", err)
	}
	return obs.ParseExposition(strings.NewReader(text))
}

// require scrapes c and fails unless every named series has a sample. It
// returns the sample values summed by name, labels folded.
func require(c *farm.Client, names ...string) (map[string]float64, error) {
	samples, err := scrape(c)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for _, s := range samples {
		sums[s.Name] += s.Value
	}
	var missing []string
	for _, name := range names {
		if _, ok := sums[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("scrape is missing required series: %s", strings.Join(missing, ", "))
	}
	return sums, nil
}

// obsSeries are the families the obs scenario's post-campaign scrape must
// carry: job lifecycle, queue depth, store activity and hash path.
var obsSeries = []string{
	"checkfarm_jobs_submitted_total",
	"checkfarm_jobs_finished_total",
	"checkfarm_jobs_running",
	"checkfarm_queue_depth",
	"checkfarm_runs_executed_total",
	"checkfarm_store_appends_total",
	"checkfarm_store_append_seconds_count",
	"instantcheck_stores_total",
	"instantcheck_stores_hashed_total",
	"instantcheck_checkpoints_total",
	"instantcheck_fastwindow_misses_total",
	"instantcheck_traverse_delta_sweeps_total",
	"instantcheck_traverse_dirty_pages_total",
	"instantcheck_storebuffer_flushes_total",
	"instantcheck_storebuffer_coalesced_total",
	"checkd_goroutines",
}

func obsScenario(ctx context.Context, bin, dir string) error {
	c, stop, err := startDaemon(bin, filepath.Join(dir, "farm.log"), "-pprof")
	if err != nil {
		return err
	}
	defer stop()
	// A fresh daemon already serves a well-formed exposition.
	if _, err := scrape(c); err != nil {
		return fmt.Errorf("fresh-daemon scrape: %w", err)
	}
	if _, err := runJob(ctx, c, farm.JobSpec{App: "fft", Runs: 4, Threads: 4, Small: true}); err != nil {
		return err
	}
	if _, err := require(c, obsSeries...); err != nil {
		return fmt.Errorf("post-campaign scrape: %w", err)
	}
	log.Printf("all %d required series present", len(obsSeries))
	return nil
}

// exploreJobs pairs every strategy with a seeded bug it must find. The
// uniform and coverage searches run at the scheduler's default preemption
// cadence, where any schedule perturbation surfaces the atomicity bug in a
// few runs; pct and race-directed run in the rare-preemption stress regime
// their schedule shaping is for (the regimes measured by `instantcheck
// exploreeff`).
var exploreJobs = []farm.JobSpec{
	{App: "waterSP", Kind: "explore", Strategy: "uniform", Bug: "atomicity",
		Runs: 10, Threads: 4, InputSeed: 1, RoundFP: true, Small: true},
	{App: "waterSP", Kind: "explore", Strategy: "coverage", Bug: "atomicity",
		Runs: 10, Threads: 4, InputSeed: 1, RoundFP: true, Small: true},
	{App: "waterSP", Kind: "explore", Strategy: "race-directed", Bug: "atomicity",
		Runs: 40, Threads: 4, InputSeed: 1, RoundFP: true, Small: true, SwitchInterval: 4000},
	{App: "radix", Kind: "explore", Strategy: "pct", Bug: "order",
		Runs: 40, Threads: 4, InputSeed: 1, Small: true, SwitchInterval: 20000},
}

func exploreScenario(ctx context.Context, bin, dir string) error {
	c, stop, err := startDaemon(bin, filepath.Join(dir, "farm.log"))
	if err != nil {
		return err
	}
	defer stop()
	for _, spec := range exploreJobs {
		job, err := runJob(ctx, c, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Strategy, err)
		}
		rep, err := c.Report(ctx, job.ID)
		if err != nil {
			return fmt.Errorf("report %s: %w", spec.Strategy, err)
		}
		out := rep.Explore
		if out == nil || out.Strategy != spec.Strategy {
			return fmt.Errorf("%s job report carries outcome %+v", spec.Strategy, out)
		}
		if !out.Found {
			return fmt.Errorf("explore[%s] missed the seeded %s bug in %s within its %d-run budget",
				spec.Strategy, spec.Bug, spec.App, out.Budget)
		}
		log.Printf("explore[%s]: %s %s bug found at run %d of budget %d",
			spec.Strategy, spec.App, spec.Bug, out.DivergedRun, out.Budget)
	}

	// Every strategy's explore series are present, with at least one
	// divergence counted each.
	samples, err := scrape(c)
	if err != nil {
		return fmt.Errorf("post-search scrape: %w", err)
	}
	runs := obs.SumBy(samples, "checkfarm_explore_runs_total", "strategy")
	divergences := obs.SumBy(samples, "checkfarm_explore_divergences_total", "strategy")
	for _, spec := range exploreJobs {
		if runs[spec.Strategy] == 0 {
			return fmt.Errorf("scrape has no checkfarm_explore_runs_total{strategy=%q}", spec.Strategy)
		}
		if divergences[spec.Strategy] == 0 {
			return fmt.Errorf("scrape counts no divergence for strategy %q", spec.Strategy)
		}
	}
	log.Printf("%d strategies found their bugs; explore series present for each", len(exploreJobs))
	return nil
}

// fleetSeries are the checkfleet families the fleet scenario's merged
// scrape must carry, plus a farm sentinel proving the merge really
// concatenates both registries.
var fleetSeries = []string{
	"checkfleet_workers_live",
	"checkfleet_worker_live",
	"checkfleet_leases_active",
	"checkfleet_campaigns_active",
	"checkfleet_shards_leased_total",
	"checkfleet_shards_completed_total",
	"checkfleet_shards_expired_total",
	"checkfleet_runs_requeued_total",
	"checkfleet_blob_fetch_misses_total",
	"checkfleet_blob_serve_bytes_total",
	"checkfleet_appendback_records_total",
	"checkfleet_appendback_bytes_total",
	"checkfarm_jobs_submitted_total",
}

func fleetScenario(ctx context.Context, bin, dir string) error {
	// Small shards and a short lease TTL, so the kill re-dispatches quickly.
	fleetC, stopFleet, err := startDaemon(bin, filepath.Join(dir, "fleet.log"),
		"-fleet", "-shard-size", "4", "-lease-ttl", "1s")
	if err != nil {
		return err
	}
	defer stopFleet()

	// Four workers. The victim replays slowly (per-run latency), so it is
	// guaranteed to be mid-shard when the SIGKILL lands.
	var workers []*exec.Cmd
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()
	for _, name := range []string{"victim", "w1", "w2", "w3"} {
		args := []string{"-coordinator", fleetC.BaseURL, "-name", name,
			"-cache", filepath.Join(dir, "cache-"+name), "-poll", "20ms"}
		if name == "victim" {
			args = append(args, "-run-latency", "80ms")
		}
		w := exec.Command(filepath.Join(bin, "checkworker"), args...)
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			return fmt.Errorf("start worker %s: %w", name, err)
		}
		workers = append(workers, w)
	}

	// The full 17-app evaluation campaign, fully seeded so the plain daemon
	// below resolves byte-identical campaigns.
	var specs []farm.JobSpec
	var ids []farm.JobID
	for _, app := range apps.Names() {
		spec := farm.JobSpec{App: app, Runs: 6, Threads: 4, Seed: 50, InputSeed: 7, Small: true}
		job, err := fleetC.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("submit %s: %w", app, err)
		}
		specs, ids = append(specs, spec), append(ids, job.ID)
	}
	log.Printf("submitted %d campaigns to the fleet daemon", len(ids))

	// Kill the victim as soon as it holds a lease (SIGKILL: no farewell, no
	// flush — the lease must expire on its own).
	victimLeased := func(s obs.Sample) bool {
		return s.Name == "checkfleet_shards_leased_total" && s.Label("worker") == "victim" && s.Value >= 1
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if samples, err := scrape(fleetC); err == nil && slices.ContainsFunc(samples, victimLeased) {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("victim never leased a shard within 30s")
		}
	}
	victim := workers[0]
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("kill victim: %w", err)
	}
	victim.Wait()
	log.Print(`SIGKILLed worker "victim" mid-shard`)

	// Every campaign still converges.
	for _, id := range ids {
		if _, err := waitDone(ctx, fleetC, id); err != nil {
			return fmt.Errorf("fleet %w", err)
		}
	}

	// The reference: a plain single-node checkd over the same specs.
	plainC, stopPlain, err := startDaemon(bin, filepath.Join(dir, "plain.log"))
	if err != nil {
		return err
	}
	defer stopPlain()
	for i, spec := range specs {
		ref, err := runJob(ctx, plainC, spec)
		if err != nil {
			return fmt.Errorf("reference %w", err)
		}
		fleetRep, err := fleetC.Report(ctx, ids[i])
		if err != nil {
			return err
		}
		plainRep, err := plainC.Report(ctx, ref.ID)
		if err != nil {
			return err
		}
		a, _ := json.Marshal(fleetRep)
		b, _ := json.Marshal(plainRep)
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s: fleet report differs from single-node:\nfleet  %s\nsingle %s", spec.App, a, b)
		}
	}
	log.Printf("all %d fleet reports byte-identical to single-node", len(ids))

	// The merged exposition lints, carries every fleet series, and shows the
	// kill: at least one expired lease and one re-queued run.
	sums, err := require(fleetC, fleetSeries...)
	if err != nil {
		return fmt.Errorf("post-campaign scrape: %w", err)
	}
	expired, requeued := sums["checkfleet_shards_expired_total"], sums["checkfleet_runs_requeued_total"]
	if expired < 1 {
		return errors.New("no lease expired despite the SIGKILL")
	}
	if requeued < 1 {
		return errors.New("no runs re-queued despite the SIGKILL")
	}
	log.Printf("%v shard(s) expired, %v run(s) re-queued, all %d required series present",
		expired, requeued, len(fleetSeries))
	return nil
}
