package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instantcheck/internal/sim"
)

// smokeSpec is a campaign sized so that the full invariant matrix stays
// fast: small inputs, 8 runs, 4 threads.
func smokeSpec(app, hasher string) JobSpec {
	return JobSpec{
		App:       app,
		Runs:      8,
		Threads:   4,
		Seed:      50,
		InputSeed: 7,
		Hasher:    hasher,
		Small:     true,
	}
}

// smokeWorkers is the local pool width the runJob tests use.
const smokeWorkers = 8

// TestParallelEqualsSequentialFarm is the subsystem's central invariant:
// for a smoke subset of apps and both hashers, a campaign pushed through
// the farm's 8-wide local pool yields a report identical to
// Campaign.Check's pool of one.
func TestParallelEqualsSequentialFarm(t *testing.T) {
	for _, app := range []string{"fft", "lu", "radix", "barnes"} {
		for _, hasher := range []string{"mix64", "crc64"} {
			t.Run(app+"/"+hasher, func(t *testing.T) {
				t.Parallel()
				spec := smokeSpec(app, hasher)
				camp, build, err := spec.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				want, err := camp.Check(build)
				if err != nil {
					t.Fatal(err)
				}

				_, got, err := runJob(context.Background(), "j000000", spec, nil, nil, nil, smokeWorkers, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("farm report differs from Campaign.Check's:\ncheck %+v\nfarm  %+v", want, got)
				}
			})
		}
	}
}

// TestPoolWidthIsRunWorkers checks that a check job's local pool is as wide
// as the daemon's worker count whatever the posted spec says: a body that
// still carries the deleted "parallelism" field decodes, and a 2-worker
// pool never has more than two runs in flight. Each run is held in onRun
// for a moment, so a wider pool would show up as more concurrent calls.
func TestPoolWidthIsRunWorkers(t *testing.T) {
	var spec JobSpec
	body := `{"app":"fft","runs":16,"threads":2,"small":true,"parallelism":100000}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	const workers = 2
	var inFlight, peak atomic.Int32
	onRun := func(run int, res *sim.Result) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	if _, _, err := runJob(context.Background(), "j000000", spec, nil, nil, nil, workers, onRun, nil); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d runs in flight in a %d-worker pool", p, workers)
	}
}

// TestRunJobResume simulates a daemon crash: a campaign's store log is
// truncated to a committed prefix plus a torn trailing line, and the job
// is re-run against the surviving log. The resumed report must be
// identical to the uninterrupted one, and only the missing runs may
// re-execute.
func TestRunJobResume(t *testing.T) {
	spec := smokeSpec("radix", "mix64")
	dir := t.TempDir()

	// Uninterrupted reference execution, persisted the way the daemon
	// does it.
	s1, err := OpenStore(filepath.Join(dir, "full.log"))
	if err != nil {
		t.Fatal(err)
	}
	id := s1.NextID()
	if err := s1.BeginJob(id, spec); err != nil {
		t.Fatal(err)
	}
	sink := func(st *Store) func(int, *sim.Result) error {
		return func(run int, res *sim.Result) error { return st.AppendRun(id, run, res) }
	}
	want, _, err := runJob(context.Background(), id, spec, nil, nil, nil, smokeWorkers, sink(s1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: keep the prefix up to and including the 4th runend commit,
	// then a torn half-line.
	raw, err := os.ReadFile(filepath.Join(dir, "full.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	var prefix strings.Builder
	commits := 0
	for _, l := range lines {
		prefix.WriteString(l)
		if strings.HasPrefix(l, "runend ") {
			commits++
			if commits == 4 {
				break
			}
		}
	}
	prefix.WriteString("cp " + string(id) + " 6 0 00dead") // torn write
	crashPath := filepath.Join(dir, "crashed.log")
	if err := os.WriteFile(crashPath, []byte(prefix.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jl := s2.Job(id)
	if jl == nil {
		t.Fatal("job missing from crashed log")
	}
	survivors := jl.CompletedRuns()
	if len(survivors) != 4 {
		t.Fatalf("committed runs in crashed log = %v, want 4", survivors)
	}

	var (
		mu         sync.Mutex
		reExecuted []int
	)
	onRun := func(run int, res *sim.Result) error {
		mu.Lock()
		reExecuted = append(reExecuted, run)
		mu.Unlock()
		return s2.AppendRun(id, run, res)
	}
	got, _, err := runJob(context.Background(), id, spec, jl, nil, nil, smokeWorkers, onRun, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The wire report carries only hash-level data, so a resumed campaign
	// must reproduce it bit for bit. (The core report's per-run simulator
	// counters are deliberately absent from resurrected runs.)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed wire report differs:\nfull    %+v\nresumed %+v", want, got)
	}
	// Only runs missing from the log were re-executed and re-persisted
	// (run 0 always re-executes for its replay logs but is not re-stored).
	surviving := map[int]bool{}
	for _, r := range survivors {
		surviving[r] = true
	}
	for _, r := range reExecuted {
		if surviving[r] {
			t.Errorf("run %d re-executed despite committed log entry", r)
		}
	}
	if len(reExecuted) != spec.Runs-len(survivors) {
		t.Errorf("re-executed %v, want the %d missing runs", reExecuted, spec.Runs-len(survivors))
	}
	// After the resume the log is complete and can reproduce the report
	// without any execution at all.
	fromLog, err := reportFromLog(s2.Job(id))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, fromLog) {
		t.Errorf("report assembled purely from log differs:\nlive %+v\nlog  %+v", want, fromLog)
	}
}

// TestRunJobRejectsForeignLog checks the cross-check of the recording
// run: a stored hash log that disagrees with re-recorded run 1 (wrong
// binary, wrong input) must fail loudly instead of merging silently, in
// its State Hashes or in its output hashes alone.
func TestRunJobRejectsForeignLog(t *testing.T) {
	spec := smokeSpec("fft", "mix64")
	dir := t.TempDir()
	s, err := OpenStore(filepath.Join(dir, "farm.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := s.NextID()
	if err := s.BeginJob(id, spec); err != nil {
		t.Fatal(err)
	}
	// A committed run 0 with a bogus hash vector.
	if err := s.AppendRun(id, 0, testResult(0x1234, 3)); err != nil {
		t.Fatal(err)
	}
	_, _, err = runJob(context.Background(), id, spec, s.Job(id), nil, nil, smokeWorkers, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("foreign log accepted: err = %v", err)
	}

	// Committed runs 0-3 from a binary whose output differs: every
	// checkpoint hash right, the stdout hash flipped. A check of the State
	// Hash vector alone resumed this log and reported two distinct
	// outputs where a fresh campaign reports one.
	spec = smokeSpec("pbzip2", "mix64")
	id = s.NextID()
	if err := s.BeginJob(id, spec); err != nil {
		t.Fatal(err)
	}
	flipStdout := func(run int, res *sim.Result) error {
		if run > 3 {
			return nil
		}
		rec := NewRunRecord(run, res)
		if len(rec.Outputs) == 0 || rec.Outputs[0].FD != sim.Stdout {
			return fmt.Errorf("run %d has no stdout stream: %+v", run, rec.Outputs)
		}
		rec.Outputs[0].Hash ^= 1
		return s.AppendRun(id, run, rec.Result())
	}
	if _, _, err := runJob(context.Background(), id, spec, nil, nil, nil, smokeWorkers, flipStdout, nil); err != nil {
		t.Fatal(err)
	}
	_, _, err = runJob(context.Background(), id, spec, s.Job(id), nil, nil, smokeWorkers, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("log with foreign outputs accepted: err = %v", err)
	}
}

// TestJobSpecResolve covers spec validation at the service boundary.
func TestJobSpecResolve(t *testing.T) {
	if _, _, err := (JobSpec{App: "no-such-app"}).Resolve(); err == nil {
		t.Error("unknown app accepted")
	}
	if _, _, err := (JobSpec{App: "fft", Scheme: "warp"}).Resolve(); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, _, err := (JobSpec{App: "fft", Hasher: "md5"}).Resolve(); err == nil {
		t.Error("unknown hasher accepted")
	}
	if _, _, err := (JobSpec{App: "fft", Runs: -1}).Resolve(); err == nil {
		t.Error("negative runs accepted")
	}
	camp, build, err := (JobSpec{App: "fft", Scheme: "swinc", Hasher: "crc64", Small: true}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if build == nil {
		t.Fatal("nil builder")
	}
	if camp.Scheme != sim.SWInc {
		t.Errorf("scheme = %v", camp.Scheme)
	}
}
