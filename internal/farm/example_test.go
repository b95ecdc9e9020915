package farm_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"instantcheck/internal/farm"
)

// ExampleServer embeds a complete checkd daemon — hash-log store, job
// queue, parallel run workers, HTTP API — in one process, drives it with
// the client `instantcheck remote` uses, and then restarts the daemon over
// its own store: a finished job's report survives in the hash log alone.
func ExampleServer() {
	dir, err := os.MkdirTemp("", "checkfarm")
	check(err)
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "farm.log")
	ctx := context.Background()

	store, err := farm.OpenStore(storePath)
	check(err)
	srv := farm.NewServer(store, farm.Options{RunWorkers: 4})
	stop, cancel := context.WithCancel(ctx)
	srv.Start(stop)
	hs := httptest.NewServer(srv.Handler())
	c := farm.NewClient(hs.URL)

	// Two campaigns; each one's replay runs execute 4-wide.
	var ids []farm.JobID
	for _, app := range []string{"radix", "barnes"} {
		job, err := c.Submit(ctx, farm.JobSpec{App: app, Runs: 10, Threads: 4, Small: true})
		check(err)
		job, err = c.Wait(ctx, job.ID, 10*time.Millisecond)
		check(err)
		rep, err := c.Report(ctx, job.ID)
		check(err)
		fmt.Printf("%s %-6s %s: deterministic %v (%d checkpoints, %d ndet)\n",
			job.ID, app, job.State, rep.Deterministic, rep.Points, rep.NDetPoints)
		ids = append(ids, job.ID)
	}

	// A job's hash log is the unit of cross-host comparison: fetch it as
	// text, as another host would, and diff it with the job it came from,
	// then diff the two jobs.
	hashLog, err := c.HashLog(ctx, ids[0])
	check(err)
	fmt.Printf("hash log of %s: %d lines, first %s\n",
		ids[0], strings.Count(hashLog, "\n"), strings.SplitN(hashLog, "\n", 2)[0])
	fetch := func(id farm.JobID) []farm.HashLogLine {
		text, err := c.HashLog(ctx, id)
		check(err)
		lines, err := farm.ParseHashLog(strings.NewReader(text))
		check(err)
		return lines
	}
	saved, err := farm.ParseHashLog(strings.NewReader(hashLog))
	check(err)
	same := farm.CompareHashLogs(saved, fetch(ids[0]))
	fmt.Printf("fetched log vs %s: equal %v over %d runs\n", ids[0], same.Equal, same.RunsCompared)
	diff := farm.CompareHashLogs(fetch(ids[0]), fetch(ids[1]))
	fmt.Printf("%s vs %s: equal %v, first divergence at run %d checkpoint %d\n",
		ids[0], ids[1], diff.Equal, diff.First.Run+1, diff.First.Ordinal)

	// Stop the daemon and start a new one on the same store.
	hs.Close()
	cancel()
	srv.Wait()
	check(store.Close())
	store, err = farm.OpenStore(storePath)
	check(err)
	defer store.Close()
	srv = farm.NewServer(store, farm.Options{})
	srv.Resume()
	rep, err := srv.Report(ids[0])
	check(err)
	fmt.Printf("after restart, %s (%s) from the hash log: %d runs, deterministic %v\n",
		ids[0], rep.Program, rep.Runs, rep.Deterministic)
	// Output:
	// j000001 radix  done: deterministic true (12 checkpoints, 0 ndet)
	// j000002 barnes done: deterministic false (9 checkpoints, 7 ndet)
	// hash log of j000001: 120 lines, first 0 0 5f23ca950cdefa7a "radix.start"
	// fetched log vs j000001: equal true over 10 runs
	// j000001 vs j000002: equal false, first divergence at run 1 checkpoint 0
	// after restart, j000001 (radix) from the hash log: 10 runs, deterministic true
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
