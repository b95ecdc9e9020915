package sim_test

// The differential oracle. Every InstantCheck scheme computes the same
// quantity, the State Hash SH = Σ h(a,v) ⊖ h(a,0) over the live state
// (§2). HWInc and SWInc accumulate it store by store through the
// per-thread store buffer; SWTr sweeps it at each checkpoint, over dirty
// pages only after the first sweep. The oracle checks every one of those
// fast paths against naiveSH, which
// recomputes SH word by word from a snapshot of the checkpointed state.

import (
	"fmt"
	"testing"

	"instantcheck/internal/apps"
	"instantcheck/internal/fpround"
	"instantcheck/internal/ihash"
	"instantcheck/internal/mem"
	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// naiveSH recomputes a checkpoint's raw and ignore-adjusted State Hash
// from its snapshot, straight from the definition: each live word
// contributes h(a, round(v)) ⊖ h(a, 0), and the adjusted hash skips the
// ignored words. No cache, no buffer.
func naiveSH(s *mem.Snapshot, roundFP bool, ignore *sim.IgnoreSet) (raw, adj ihash.Digest) {
	var h ihash.Hasher = ihash.Mix64{}
	for i, a := range s.Addrs {
		b := s.BlockAt(a)
		v := s.Vals[i]
		if roundFP && b.Kind == mem.KindFloat {
			v = fpround.Default.RoundBits(v)
		}
		d := h.HashWord(a, v).Subtract(h.HashWord(a, 0))
		raw = raw.Combine(d)
		if !ignored(ignore, b, int((a-b.Base)/mem.WordSize)) {
			adj = adj.Combine(d)
		}
	}
	return raw, adj
}

// ignored reports whether an ignore rule selects word off of block b.
func ignored(set *sim.IgnoreSet, b *mem.Block, off int) bool {
	for _, r := range set.Rules() {
		if r.Site != b.Site {
			continue
		}
		if r.Offsets == nil {
			return true
		}
		for _, o := range r.Offsets {
			if o == off {
				return true
			}
		}
	}
	return false
}

// everyCheckpoint requests a snapshot at each ordinal a test program can
// reach; checkRun fails if a checkpoint arrives without one.
var everyCheckpoint = func() map[int]bool {
	m := make(map[int]bool, 1<<14)
	for i := 0; i < 1<<14; i++ {
		m[i] = true
	}
	return m
}()

// checkRun executes one run with a snapshot at every checkpoint and
// requires each checkpoint's RawSH and SH to equal naiveSH's.
func checkRun(t *testing.T, cfg sim.Config, prog sim.Program) *sim.Result {
	t.Helper()
	cfg.SnapshotAt = everyCheckpoint
	cfg.CheckpointHook = func(cp sim.Checkpoint) error {
		if cp.Snapshot == nil {
			return fmt.Errorf("checkpoint %d (%s): no snapshot", cp.Ordinal, cp.Label)
		}
		raw, adj := naiveSH(cp.Snapshot, cfg.RoundFP, cfg.Ignore)
		// Only the hashes are needed: drop the copy so long runs keep
		// one snapshot alive at a time.
		*cp.Snapshot = mem.Snapshot{}
		if raw != cp.RawSH || adj != cp.SH {
			return fmt.Errorf("checkpoint %d (%s): raw %s adj %s, naive raw %s adj %s",
				cp.Ordinal, cp.Label, cp.RawSH, cp.SH, raw, adj)
		}
		return nil
	}
	res, err := sim.NewMachine(cfg).Run(prog)
	if err != nil {
		t.Fatalf("%v seed %d: %v", cfg.Scheme, cfg.ScheduleSeed, err)
	}
	return res
}

// oracleSchemes are the schemes whose State Hash is exact on any program.
// SWIncNonAtomic is exact only on race-free ones (§4.1).
var oracleSchemes = []struct {
	name   string
	scheme sim.Scheme
}{
	{"hwinc", sim.HWInc},
	{"swinc", sim.SWInc},
	{"swtr", sim.SWTr},
}

// TestStateHashOracle checks the three schemes against naiveSH at every
// checkpoint of three runs of all 17 apps and the three seeded Figure 7
// bugs (small inputs, 4 threads), with each app's FP rounding and ignore
// set. The test also requires that every fast path ran: store-buffer
// drains on each incremental run and a delta sweep at every traversal
// checkpoint after the first.
func TestStateHashOracle(t *testing.T) {
	type oracleCase struct {
		name string
		app  *apps.App
		opts apps.Options
	}
	var cases []oracleCase
	for _, app := range apps.Registry() {
		cases = append(cases, oracleCase{app.Name, app, apps.Options{Threads: 4, Small: true}})
	}
	for _, app := range apps.Registry() {
		if app.HostsBug != apps.BugNone {
			cases = append(cases, oracleCase{app.Name + "+bug", app, apps.Options{Threads: 4, Small: true, Bug: app.HostsBug}})
		}
	}

	var delta, flushes uint64
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range oracleSchemes {
				t.Run(s.name, func(t *testing.T) {
					env := replay.NewEnv(7)
					log := replay.NewAddrLog()
					for run := 0; run < 3; run++ {
						res := checkRun(t, sim.Config{
							Threads:      c.opts.Threads,
							ScheduleSeed: int64(100 + run),
							Scheme:       s.scheme,
							RoundFP:      c.app.UsesFP,
							Ignore:       c.app.IgnoreSet(),
							Env:          env,
							AddrLog:      log,
						}, c.app.Build(c.opts))
						ctr := res.Counters
						if s.scheme == sim.SWTr {
							if want := uint64(len(res.Checkpoints) - 1); ctr.TraverseDeltaSweeps != want {
								t.Errorf("run %d: %d delta sweeps, want %d", run, ctr.TraverseDeltaSweeps, want)
							}
						} else if ctr.StoreBufferFlushes == 0 {
							t.Errorf("run %d: the store buffer never drained", run)
						}
						delta += ctr.TraverseDeltaSweeps
						flushes += ctr.StoreBufferFlushes
					}
				})
			}
		})
	}
	if delta == 0 || flushes == 0 {
		t.Errorf("fast paths not all exercised: %d delta sweeps, %d buffer flushes", delta, flushes)
	}
}

// FuzzStateHashOracle checks the schemes against naiveSH over the fuzz
// workload's stores, frees, address reuse and barriers, with an ignore
// set and with FP rounding on and off. bufStreamProg also toggles hashing
// and FP rounding mid-run; there a checkpoint sweep legitimately differs
// from per-store hashing, so the buffered schemes are checked against
// SWIncNonAtomic, which always hashes inline and is exact on this
// race-free program.
func FuzzStateHashOracle(f *testing.F) {
	f.Add(uint64(1), int64(2))
	f.Add(uint64(11), int64(5))
	f.Add(uint64(99), int64(42))
	f.Add(uint64(0xdeadbeef), int64(-7))
	f.Fuzz(func(t *testing.T, progSeed uint64, schedSeed int64) {
		ignore := sim.NewIgnoreSet(
			sim.IgnoreRule{Site: "fuzz.heap"},
			sim.IgnoreRule{Site: "static:fuzz.shared", Offsets: []int{0, 3}},
		)
		for _, roundFP := range []bool{false, true} {
			// One shared AddrLog: the first run records malloc placement
			// and the others replay it, re-allocating at freed bases.
			log := replay.NewAddrLog()
			for _, s := range oracleSchemes {
				checkRun(t, sim.Config{
					Threads:      3,
					ScheduleSeed: schedSeed,
					Scheme:       s.scheme,
					RoundFP:      roundFP,
					Ignore:       ignore,
					AddrLog:      log,
				}, sim.NewFuzzProg(3, progSeed, 40))
			}
		}

		log := replay.NewAddrLog()
		bufRun := func(scheme sim.Scheme) *sim.Result {
			res, err := sim.NewMachine(sim.Config{
				Threads:      3,
				ScheduleSeed: schedSeed,
				Scheme:       scheme,
				AddrLog:      log,
			}).Run(sim.NewBufStreamProg(3, progSeed, 60))
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			return res
		}
		ref := bufRun(sim.SWIncNonAtomic)
		for _, scheme := range []sim.Scheme{sim.HWInc, sim.SWInc} {
			got := bufRun(scheme)
			if len(got.Checkpoints) != len(ref.Checkpoints) {
				t.Fatalf("%v: %d checkpoints, inline reference %d", scheme, len(got.Checkpoints), len(ref.Checkpoints))
			}
			for i, cp := range got.Checkpoints {
				if r := ref.Checkpoints[i]; cp.RawSH != r.RawSH || cp.SH != r.SH {
					t.Fatalf("%v checkpoint %d (%s): raw %s adj %s, inline reference raw %s adj %s",
						scheme, i, cp.Label, cp.RawSH, cp.SH, r.RawSH, r.SH)
				}
			}
			if got.Counters.StoreBufferFlushes == 0 {
				t.Fatalf("%v: the store buffer never drained", scheme)
			}
		}
	})
}
