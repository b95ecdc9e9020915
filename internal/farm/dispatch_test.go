package farm

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"instantcheck/internal/core"
	"instantcheck/internal/sim"
)

// TestAppendRunIdempotent pins the store contract a fleet's straggler
// re-dispatch relies on: re-committing a run with identical content is a
// durable no-op (no duplicate lines), while conflicting content — which
// deterministic replay makes impossible short of a harness bug — errors.
func TestAppendRunIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "farm.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id := s.NextID()
	if err := s.BeginJob(id, JobSpec{App: "radix"}); err != nil {
		t.Fatal(err)
	}
	res := testResult(500, 3)
	if err := s.AppendRun(id, 2, res); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()

	// Identical re-append: accepted, and nothing reaches the log.
	if err := s.AppendRun(id, 2, res); err != nil {
		t.Fatalf("idempotent re-append rejected: %v", err)
	}
	if after := size(); after != before {
		t.Errorf("duplicate append grew the log by %d bytes", after-before)
	}

	// Conflicting content: loud error, log still untouched.
	if err := s.AppendRun(id, 2, testResult(501, 3)); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("conflicting append: err = %v, want disagreement", err)
	}
	if err := s.AppendRun(id, 2, testResult(500, 2)); err == nil {
		t.Error("append with different checkpoint count accepted")
	}
	if after := size(); after != before {
		t.Errorf("conflicting append wrote %d bytes", after-before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The reloaded store holds exactly one committed copy of the run.
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jl := s2.Job(id)
	if got := jl.CompletedRuns(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("completed runs = %v", got)
	}
	if rl, err := jl.Run(2); err != nil || len(rl.Checkpoints) != 3 || rl.Checkpoints[0].SH != 500 {
		t.Errorf("run 2 reloaded as %+v, %v", rl, err)
	}
}

// duplicatingDispatcher delivers every run twice from concurrent
// goroutines — the worst-case shape of a re-dispatched shard racing its
// zombie lease. runJob must dedup by run index and still assemble the
// canonical report.
type duplicatingDispatcher struct {
	delivered map[int]int
	mu        sync.Mutex
}

func (d *duplicatingDispatcher) Dispatch(ctx context.Context, id JobID, spec JobSpec, runner *core.Runner, need []int,
	deliver func(run int, res *sim.Result) error) error {

	var wg sync.WaitGroup
	errs := make(chan error, 2*len(need))
	for _, run := range need {
		for attempt := 0; attempt < 2; attempt++ {
			wg.Add(1)
			go func(run int) {
				defer wg.Done()
				res, err := runner.Replay(run)
				if err == nil {
					err = deliver(run, res)
				}
				if err != nil {
					errs <- err
					return
				}
				d.mu.Lock()
				d.delivered[run]++
				d.mu.Unlock()
			}(run)
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// TestDispatcherSeamWithDuplicates runs a campaign through a custom
// dispatcher wired in via Options.Dispatcher, with every run delivered
// twice, and checks the report matches the local pool's byte for byte and
// the store holds exactly one record set.
func TestDispatcherSeamWithDuplicates(t *testing.T) {
	spec := smokeSpec("radix", "mix64")

	// Reference: the default local pool.
	want, _, err := runJob(context.Background(), "j000000", spec, nil, nil, nil, smokeWorkers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	disp := &duplicatingDispatcher{delivered: make(map[int]int)}
	_, c := startTestDaemon(t, filepath.Join(dir, "farm.log"), Options{RunWorkers: 4, Dispatcher: disp})
	job, err := c.Submit(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitDone(t, c, job.ID); done.State != JobDone {
		t.Fatalf("job through duplicating dispatcher: %s: %s", done.State, done.Error)
	}
	got, err := c.Report(bg, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("report through dispatcher differs:\nlocal %+v\ndisp  %+v", want, got)
	}
	for run, n := range disp.delivered {
		if n != 2 {
			t.Errorf("run %d delivered %d times, want both copies accepted", run, n)
		}
	}
	if len(disp.delivered) != spec.Runs-1 {
		t.Errorf("dispatcher saw %d runs, want %d", len(disp.delivered), spec.Runs-1)
	}
}

// lateDuplicateDispatcher delivers every run in turn, then a second copy
// of one run with its first State Hash flipped, after the first copy's
// delivery has returned: a zombie lease reporting late from a worker
// built from another commit.
type lateDuplicateDispatcher struct{ run int }

func (d lateDuplicateDispatcher) Dispatch(ctx context.Context, id JobID, spec JobSpec, runner *core.Runner, need []int,
	deliver func(run int, res *sim.Result) error) error {

	replay := func(run int, flip bool) error {
		res, err := runner.Replay(run)
		if err != nil {
			return err
		}
		if flip {
			res.Checkpoints[0].SH ^= 1
		}
		return deliver(run, res)
	}
	for _, run := range need {
		if err := replay(run, false); err != nil {
			return err
		}
	}
	return replay(d.run, true)
}

// TestLateDisagreeingDuplicateFailsJob: every delivery reaches the store,
// which compares a run already committed with its record, so a duplicate
// that differs fails the job however late it arrives.
func TestLateDisagreeingDuplicateFailsJob(t *testing.T) {
	_, c := startTestDaemon(t, filepath.Join(t.TempDir(), "farm.log"),
		Options{RunWorkers: 1, Dispatcher: lateDuplicateDispatcher{run: 2}})
	job, err := c.Submit(bg, smokeSpec("radix", "mix64"))
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, c, job.ID)
	if done.State != JobFailed || !strings.Contains(done.Error, "run 2: duplicate append disagrees") {
		t.Fatalf("job with a late disagreeing duplicate of run 2: %s: %q", done.State, done.Error)
	}
}
