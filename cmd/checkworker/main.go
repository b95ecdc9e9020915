// Command checkworker is a checkfleet worker node. It pulls run-shard
// leases from a fleet-mode checkd (see cmd/checkd -fleet), fetches each
// campaign's recorded replay bundle from the coordinator's content-addressed
// store (caching it on disk by digest), replays the leased runs, and posts
// the resulting State-Hash records back every four runs; a batch the
// coordinator answers with the lease gone ends the shard at once.
//
// Usage:
//
//	checkworker -coordinator http://host:8347 [-name NAME] [-cache DIR]
//	            [-poll D] [-run-latency D]
//
// The worker holds no campaign state of its own: every run is reproducible
// from (replay bundle, run index) alone, so a worker may be killed at any
// moment — its lease expires at the coordinator and the undelivered runs are
// re-dispatched to the rest of the fleet. -run-latency injects an artificial
// per-run delay; it exists for scaling benchmarks and kill tests.
//
// On SIGINT/SIGTERM the worker stops pulling, abandons its current shard
// (the coordinator re-queues the remainder on lease expiry) and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"instantcheck/internal/fleet"
)

func defaultName() string {
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func main() {
	coordinator := flag.String("coordinator", "http://localhost:8347", "base URL of the fleet-mode checkd")
	name := flag.String("name", defaultName(), "worker name (shown on coordinator metrics)")
	cache := flag.String("cache", filepath.Join(os.TempDir(), "checkworker-cache"), "replay-bundle cache directory")
	poll := flag.Duration("poll", 100*time.Millisecond, "idle sleep between lease requests that found no work")
	runLatency := flag.Duration("run-latency", 0, "artificial delay before each replay run (benchmarks/tests)")
	flag.Parse()
	log.SetPrefix("checkworker: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	w, err := fleet.NewWorker(fleet.WorkerOptions{
		Name:         *name,
		Coordinator:  *coordinator,
		CacheDir:     *cache,
		PollInterval: *poll,
		RunLatency:   *runLatency,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("worker %s pulling from %s (cache %s)", *name, *coordinator, *cache)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatal(err)
	}
	log.Print("interrupted, any held lease left to expire")
}
