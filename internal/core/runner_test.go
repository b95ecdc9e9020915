package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// TestCampaignValidation checks withDefaults' input validation: negative
// run and thread counts are rejected, and zero still selects the paper
// defaults.
func TestCampaignValidation(t *testing.T) {
	if _, err := (Campaign{Runs: -1}).Check(detBuilder()); err == nil || !strings.Contains(err.Error(), "Runs") {
		t.Errorf("negative Runs not rejected: %v", err)
	}
	if _, err := (Campaign{Threads: -2}).withDefaults(); err == nil || !strings.Contains(err.Error(), "Threads") {
		t.Errorf("negative Threads not rejected: %v", err)
	}
	c, err := Campaign{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.Runs != 30 || c.Threads != 8 {
		t.Errorf("paper defaults not applied: %d runs, %d threads", c.Runs, c.Threads)
	}
	if _, err := (Campaign{Runs: -1}).NewRunner(detBuilder()); err == nil {
		t.Error("NewRunner accepted negative Runs")
	}
}

// TestParallelEqualsSequential is the order-independence invariant at run
// granularity: a campaign whose replay runs execute on a pool of 8
// concurrent workers assembles a report identical to a pool of one's, and
// so does Check at its own width, for a deterministic program, a
// nondeterministic one, and one whose replay runs draw past the recorded
// env stream.
func TestParallelEqualsSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() Builder
	}{{"det", detBuilder}, {"racy", racyBuilder}, {"env-growth", envGrowthBuilder}} {
		t.Run(tc.name, func(t *testing.T) {
			camp := testCampaign()
			// assemble records, replays on a pool of width workers and
			// assembles the report.
			assemble := func(width int) *Report {
				r, err := camp.NewRunner(tc.build())
				if err != nil {
					t.Fatal(err)
				}
				results := make([]*sim.Result, camp.Runs)
				if results[0], err = r.Record(); err != nil {
					t.Fatal(err)
				}
				var replays []int
				for run := 1; run < camp.Runs; run++ {
					replays = append(replays, run)
				}
				err = r.ReplayAll(context.Background(), replays, width, func(run int, res *sim.Result, _ time.Duration) error {
					results[run] = res
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := camp.Assemble(r.Name(), results)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			seq := assemble(1)
			checked, err := camp.Check(tc.build())
			if err != nil {
				t.Fatal(err)
			}
			for name, rep := range map[string]*Report{"8-wide pool": assemble(8), "Check": checked} {
				if !reflect.DeepEqual(seq, rep) {
					t.Errorf("%s's report differs from a pool of one's:\nseq: %+v\ngot: %+v", name, seq, rep)
				}
			}
		})
	}
}

// TestReplayAllPool checks the replay pool's bounds: it never has more than
// its worker count of runs in flight and delivers every run once; it starts
// no run after the first error, and none once its context is done.
func TestReplayAllPool(t *testing.T) {
	var inFlight, peak, started atomic.Int32
	build := func() sim.Program {
		started.Add(1)
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond) // let the runs overlap
		return detBuilder()()
	}
	camp := testCampaign()
	camp.Runs = 24
	r, err := camp.NewRunner(build)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Record(); err != nil {
		t.Fatal(err)
	}
	inFlight.Add(-1)
	var replays []int
	for run := 1; run < camp.Runs; run++ {
		replays = append(replays, run)
	}

	const workers = 3
	delivered := make([]atomic.Int32, camp.Runs)
	err = r.ReplayAll(context.Background(), replays, workers, func(run int, _ *sim.Result, _ time.Duration) error {
		inFlight.Add(-1)
		delivered[run].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d runs in flight in a %d-worker pool", p, workers)
	}
	for _, run := range replays {
		if n := delivered[run].Load(); n != 1 {
			t.Errorf("run %d delivered %d times", run, n)
		}
	}

	// Every delivery fails: each worker stops after its first run.
	started.Store(0)
	boom := errors.New("boom")
	err = r.ReplayAll(context.Background(), replays, workers, func(int, *sim.Result, time.Duration) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v; want the delivery error", err)
	}
	if n := started.Load(); n > workers {
		t.Errorf("%d runs started after the first error; want at most %d", n, workers)
	}

	started.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.ReplayAll(ctx, replays, workers, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v; want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Errorf("%d runs started after cancellation", n)
	}
}

// TestRunnerProtocol checks the Record-before-Replay discipline and the
// index bounds.
func TestRunnerProtocol(t *testing.T) {
	r, err := testCampaign().NewRunner(detBuilder())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(1); err == nil {
		t.Error("Replay before Record accepted")
	}
	if _, err := r.Record(); err != nil {
		t.Fatal(err)
	}
	if r.Name() != "toy" {
		t.Errorf("name = %q", r.Name())
	}
	if _, err := r.Record(); err == nil {
		t.Error("second Record accepted")
	}
	for _, run := range []int{0, -1, r.Campaign().Runs} {
		if _, err := r.Replay(run); err == nil {
			t.Errorf("out-of-range replay index %d accepted", run)
		}
	}
}

// TestReplayRunnerFromShippedState is the worker-node invariant: a runner
// reconstructed from the recording run's serialized replay state — the
// bytes a fleet coordinator ships — replays every run bit-identically to
// the runner that recorded, for both a deterministic and a racy program.
func TestReplayRunnerFromShippedState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() Builder
	}{{"det", detBuilder}, {"racy", racyBuilder}} {
		t.Run(tc.name, func(t *testing.T) {
			camp := testCampaign()
			rec, err := camp.NewRunner(tc.build())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rec.ReplayState(); err == nil {
				t.Error("ReplayState before Record accepted")
			}
			if _, err := rec.Record(); err != nil {
				t.Fatal(err)
			}
			st, err := rec.ReplayState()
			if err != nil {
				t.Fatal(err)
			}

			// Serialize and reconstruct, as a worker on another host would.
			raw, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var shipped ReplayState
			if err := json.Unmarshal(raw, &shipped); err != nil {
				t.Fatal(err)
			}
			worker, err := camp.NewReplayRunner(tc.build(), shipped)
			if err != nil {
				t.Fatal(err)
			}
			if worker.Name() != rec.Name() {
				t.Errorf("worker program %q, recorder %q", worker.Name(), rec.Name())
			}
			if _, err := worker.Record(); err == nil {
				t.Error("Record on a replay runner accepted")
			}
			for run := 1; run < camp.Runs; run++ {
				want, err := rec.Replay(run)
				if err != nil {
					t.Fatal(err)
				}
				got, err := worker.Replay(run)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.SHVector(), got.SHVector()) {
					t.Fatalf("run %d: shipped-state replay diverged:\nrecorder %v\nworker   %v",
						run+1, want.SHVector(), got.SHVector())
				}
				if want.OutputHash != got.OutputHash {
					t.Fatalf("run %d: output hash diverged", run+1)
				}
			}
		})
	}
}

// TestNewReplayRunnerValidation rejects states that cannot replay.
func TestNewReplayRunnerValidation(t *testing.T) {
	camp := testCampaign()
	if _, err := camp.NewReplayRunner(detBuilder(), ReplayState{}); err == nil {
		t.Error("empty replay state accepted")
	}
	if _, err := (Campaign{Runs: -1}).NewReplayRunner(detBuilder(), ReplayState{
		Addr: replay.NewAddrLog(), Env: replay.NewEnv(0),
	}); err == nil {
		t.Error("invalid campaign accepted")
	}
}

// TestAssemble checks the merge stage: results gathered through the runner
// fold into the same report Check produces, and malformed inputs are
// rejected.
func TestAssemble(t *testing.T) {
	camp := testCampaign()
	want, err := camp.Check(detBuilder())
	if err != nil {
		t.Fatal(err)
	}
	r, err := camp.NewRunner(detBuilder())
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*sim.Result, camp.Runs)
	if results[0], err = r.Record(); err != nil {
		t.Fatal(err)
	}
	// Fold replay results in reverse order: assembly must not care.
	for run := camp.Runs - 1; run >= 1; run-- {
		if results[run], err = r.Replay(run); err != nil {
			t.Fatal(err)
		}
	}
	got, err := camp.Assemble(r.Name(), results)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("assembled report differs from Check's")
	}
	if _, err := camp.Assemble("toy", results[:1]); err == nil {
		t.Error("short result slice accepted")
	}
	results[3] = nil
	if _, err := camp.Assemble("toy", results); err == nil {
		t.Error("nil result accepted")
	}
}
