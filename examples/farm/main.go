// The checkfarm as a library: this example embeds a complete checkd
// daemon — persistent hash-log store, job queue, parallel run workers,
// HTTP API — in one process, drives it with the same client the
// `instantcheck remote` CLI uses, and then "restarts" the daemon over its
// own store to show that reports survive purely in the hash log.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"instantcheck/internal/farm"
)

func main() {
	dir, err := os.MkdirTemp("", "checkfarm")
	check(err)
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "farm.log")

	// ---- first daemon lifetime ----
	store, err := farm.OpenStore(storePath)
	check(err)
	srv := farm.NewServer(store, farm.Options{RunWorkers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	c := farm.NewClient("http://" + ln.Addr().String())
	fmt.Printf("checkd serving on %s, store %s\n\n", ln.Addr(), storePath)

	// Submit two campaigns; runs execute 4-wide on the worker pool.
	radix := submit(c, farm.JobSpec{App: "radix", Runs: 10, Threads: 4, Small: true})
	barnes := submit(c, farm.JobSpec{App: "barnes", Runs: 10, Threads: 4, Small: true})
	for _, id := range []farm.JobID{radix, barnes} {
		job, err := c.Wait(context.Background(), id, 50*time.Millisecond)
		check(err)
		rep, err := c.Report(context.Background(), id)
		check(err)
		verdict := "NONDETERMINISTIC"
		if rep.Deterministic {
			verdict = "deterministic"
		}
		fmt.Printf("%s %-8s %s: %s (%d checkpoints, %d ndet)\n",
			job.ID, job.Spec.App, job.State, verdict, rep.Points, rep.NDetPoints)
	}

	// The per-checkpoint hash stream is the unit of cross-host comparison:
	// fetch it as text (as another host would) and diff it against the job
	// it came from, then against the other workload.
	logText, err := c.HashLog(context.Background(), radix)
	check(err)
	fmt.Printf("\nhash log of %s: %d lines, first: %s\n",
		radix, strings.Count(logText, "\n"), strings.SplitN(logText, "\n", 2)[0])
	same, err := c.Compare(context.Background(), farm.CompareRequest{LogA: logText, JobB: radix})
	check(err)
	fmt.Printf("compare fetched-log vs %s: equal=%v over %d runs\n", radix, same.Equal, same.RunsCompared)
	diff, err := c.Compare(context.Background(), farm.CompareRequest{JobA: radix, JobB: barnes})
	check(err)
	fmt.Printf("compare %s vs %s: equal=%v, first divergence at run %d checkpoint %d\n",
		radix, barnes, diff.Equal, diff.First.Run+1, diff.First.Ordinal)

	// ---- daemon "restart" ----
	hs.Shutdown(context.Background())
	cancel()
	srv.Wait()
	check(store.Close())

	store2, err := farm.OpenStore(storePath)
	check(err)
	defer store2.Close()
	srv2 := farm.NewServer(store2, farm.Options{})
	srv2.Resume() // finished jobs reassemble their reports from the log
	rep, err := srv2.Report(radix)
	check(err)
	fmt.Printf("\nafter restart, %s report served from the hash log alone: %s, %d runs, deterministic=%v\n",
		radix, rep.Program, rep.Runs, rep.Deterministic)
}

func submit(c *farm.Client, spec farm.JobSpec) farm.JobID {
	job, err := c.Submit(context.Background(), spec)
	check(err)
	return job.ID
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
