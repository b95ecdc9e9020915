// Command checkd is the checkfarm daemon: a determinism-checking service
// that accepts campaign submissions over HTTP, executes their runs on a
// parallel worker pool, and persists every State Hash to an append-only
// log so that a killed daemon resumes half-finished campaigns exactly
// where they stopped.
//
// Two job kinds share the queue (JobSpec.Kind): plain "check" campaigns
// compare every run's hash vector for a determinism verdict, and
// "explore" jobs drive a schedule-exploration strategy (uniform, pct,
// race-directed or coverage — see internal/explore) that hunts for a
// State-Hash divergence and stops at the first one found. Explore jobs
// always execute in-process on the daemon, even under -fleet: the search
// is sequential, each run's schedule depending on the previous results,
// so there is nothing to fan out.
//
// Usage:
//
//	checkd -addr :8347 -store farm.log [-run-workers N] [-job-workers N]
//	       [-read-timeout D] [-write-timeout D] [-idle-timeout D] [-pprof]
//	       [-fleet] [-shard-size N] [-lease-ttl D]
//
// The API (see internal/farm):
//
//	POST   /api/v1/jobs              submit a campaign (JSON JobSpec)
//	GET    /api/v1/jobs              list jobs
//	GET    /api/v1/jobs/{id}         one job's status
//	DELETE /api/v1/jobs/{id}         cancel
//	GET    /api/v1/jobs/{id}/report  finished campaign's report
//	GET    /api/v1/jobs/{id}/hashlog per-checkpoint hash stream (text)
//	GET    /healthz                  liveness + queue summary (JSON)
//	GET    /metrics                  Prometheus text exposition
//	GET    /debug/pprof/...          Go profiling (only with -pprof)
//
// With -fleet the daemon stops executing replay runs itself and instead
// coordinates a worker fleet (see internal/fleet and cmd/checkworker):
//
//	POST /api/v1/fleet/lease          worker requests a run-shard lease
//	POST /api/v1/fleet/heartbeat      worker renews its lease
//	POST /api/v1/fleet/results        worker streams result batches back
//	GET  /api/v1/fleet/blob/{digest}  content-addressed replay bundle
//
// In fleet mode /metrics merges the checkfarm and checkfleet families into
// one exposition payload; the merge is linted at startup so a metric-name
// collision between the two registries is a crash, not a corrupt scrape.
//
// The HTTP server enforces read, write and idle timeouts (flags above) so
// a slow or stuck client cannot pin daemon connections indefinitely.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, interrupts
// running campaigns after their in-flight runs commit, and exits; the
// store keeps every committed run, so the next start re-queues the
// interrupted campaigns and re-executes only what is missing.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"instantcheck/internal/farm"
	"instantcheck/internal/fleet"
	"instantcheck/internal/obs"
)

// newHTTPServer assembles checkd's HTTP server: the farm API (with metrics
// and health), optionally the fleet coordinator endpoints and a merged
// /metrics, optionally the pprof handlers, and the connection timeouts
// that keep one slow or stuck client from pinning daemon connections.
// WriteTimeout is left generous on purpose: CPU profiles stream for their
// requested duration (default 30s) and must fit inside it.
func newHTTPServer(addr string, api http.Handler, coord *fleet.Coordinator, metrics http.Handler,
	read, write, idle time.Duration, withPprof bool) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	if coord != nil {
		// More specific patterns win, so these shadow the farm's subtree:
		// the fleet API, and the merged farm+fleet exposition.
		mux.Handle("POST /api/v1/fleet/", coord.Handler())
		mux.Handle("GET /api/v1/fleet/", coord.Handler())
		mux.Handle("GET /metrics", metrics)
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return &http.Server{
		Addr:         addr,
		Handler:      mux,
		ReadTimeout:  read,
		WriteTimeout: write,
		IdleTimeout:  idle,
	}
}

// registerProcessMetrics adds checkd's process-level gauges to the farm's
// registry, scraped lazily at /metrics time.
func registerProcessMetrics(reg *obs.Registry) {
	reg.GaugeFunc("checkd_goroutines",
		"Live goroutines in the daemon process.", func() float64 {
			return float64(runtime.NumGoroutine())
		})
	reg.GaugeFunc("checkd_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

func main() {
	addr := flag.String("addr", ":8347", "HTTP listen address")
	storePath := flag.String("store", "checkfarm.log", "path of the persistent hash-log store")
	runWorkers := flag.Int("run-workers", runtime.GOMAXPROCS(0), "replay runs each check job executes at once (without -fleet)")
	jobWorkers := flag.Int("job-workers", 1, "campaigns executed concurrently")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "max duration for reading one request")
	writeTimeout := flag.Duration("write-timeout", 120*time.Second, "max duration for writing one response (covers pprof profiles)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	fleetOn := flag.Bool("fleet", false, "coordinate a checkworker fleet instead of replaying locally")
	shardSize := flag.Int("shard-size", 8, "runs per fleet lease (with -fleet)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fleet lease lifetime without a heartbeat (with -fleet)")
	flag.Parse()
	log.SetPrefix("checkd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	store, err := farm.OpenStore(*storePath)
	if err != nil {
		log.Fatal(err)
	}
	var coord *fleet.Coordinator
	var metricsHandler http.Handler
	opts := farm.Options{
		RunWorkers: *runWorkers,
		JobWorkers: *jobWorkers,
		Logf:       log.Printf,
	}
	if *fleetOn {
		coord = fleet.NewCoordinator(fleet.CoordinatorOptions{
			ShardSize: *shardSize,
			LeaseTTL:  *leaseTTL,
			Logf:      log.Printf,
		})
		opts.Dispatcher = coord
	}
	srv := farm.NewServer(store, opts)
	if n := srv.Resume(); n > 0 {
		log.Printf("re-queued %d unfinished job(s) from %s", n, *storePath)
	}
	registerProcessMetrics(srv.Registry())
	if coord != nil {
		if err := obs.LintMerged(srv.Registry(), coord.Registry()); err != nil {
			log.Fatalf("farm and fleet registries cannot merge: %v", err)
		}
		metricsHandler = obs.MergedHandler(srv.Registry(), coord.Registry())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)

	hs := newHTTPServer(*addr, srv.Handler(), coord, metricsHandler,
		*readTimeout, *writeTimeout, *idleTimeout, *pprofOn)
	if *pprofOn {
		log.Print("pprof enabled at /debug/pprof/")
	}
	if coord != nil {
		log.Printf("fleet mode: shard size %d, lease TTL %s — waiting for checkworker nodes", *shardSize, *leaseTTL)
	}
	go func() {
		<-ctx.Done()
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()

	log.Printf("listening on %s (store %s, %d run workers, %d job workers)",
		*addr, *storePath, *runWorkers, *jobWorkers)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	srv.Wait() // let interrupted jobs commit their in-flight runs
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
}
