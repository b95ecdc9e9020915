package dreplay

import (
	"testing"

	"instantcheck/internal/mem"
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// racyRounds is internally nondeterministic: each round both threads race
// to a shared word (last writer wins), then meet at a barrier. Different
// schedule seeds reach different states, so replay genuinely has to search.
type racyRounds struct {
	nt, rounds int
	g          uint64
	bar        *sched.Barrier
}

func (p *racyRounds) Name() string { return "racyRounds" }
func (p *racyRounds) Threads() int { return p.nt }
func (p *racyRounds) Setup(t *sim.Thread) {
	p.g = t.AllocStatic("static:G", p.rounds, mem.KindWord)
	p.bar = t.Machine().NewBarrier("round")
}
func (p *racyRounds) Worker(t *sim.Thread) {
	for r := 0; r < p.rounds; r++ {
		t.Store(p.g+uint64(r)*8, uint64(t.TID())+1)
		t.BarrierWait(p.bar)
	}
}

func build() sim.Program { return &racyRounds{nt: 2, rounds: 6} }

func cfg() Config { return Config{Threads: 2, SwitchInterval: 1} }

// TestRecordedSeedReplays checks the trivial ground truth: re-running the
// original seed matches the whole log.
func TestRecordedSeedReplays(t *testing.T) {
	log, err := Record(build, cfg(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Hashes) != 7 { // 6 barriers + end
		t.Fatalf("log has %d checkpoints", len(log.Hashes))
	}
	at, err := log.TrySeed(build, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !at.Match || at.DivergedAt != -1 {
		t.Fatalf("original seed did not replay: %+v", at)
	}
}

// TestSearchFindsFullStateReplay checks the §6.3 flow: search candidate
// schedules against the hash log until one reproduces every checkpoint
// state, and verify the claim by comparing the found run's full final
// state with the original's.
func TestSearchFindsFullStateReplay(t *testing.T) {
	const origSeed = 7
	log, err := Record(build, cfg(), origSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Search a seed range that does NOT include the original seed: the
	// match must come from an equivalent schedule, not the recorded one.
	res, err := log.Search(build, 1000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("no full-state replay in %d candidates", len(res.Attempts))
	}
	if res.Seed == origSeed {
		t.Fatal("search range should exclude the original seed")
	}
	// Validate with full snapshots: the found schedule must reproduce the
	// exact final memory state, which is the whole point of hash-guided
	// replay (inspect ALL variables as they were).
	orig := finalSnapshot(t, origSeed, log)
	found := finalSnapshot(t, res.Seed, log)
	for i, addr := range orig.Addrs {
		if got, _ := found.Word(addr); got != orig.Vals[i] {
			t.Fatalf("replayed state differs at %#x: %d vs %d", addr, orig.Vals[i], got)
		}
	}
}

func finalSnapshot(t *testing.T, seed int64, log *Log) *mem.Snapshot {
	t.Helper()
	m := sim.NewMachine(sim.Config{
		Threads:        log.cfg.Threads,
		ScheduleSeed:   seed,
		SwitchInterval: log.cfg.SwitchInterval,
		Scheme:         sim.HWInc,
		Env:            log.env,
		AddrLog:        log.addrLog,
		SnapshotAt:     map[int]bool{len(log.Hashes) - 1: true},
	})
	res, err := m.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Checkpoints[len(res.Checkpoints)-1].Snapshot
	if snap == nil {
		t.Fatal("no snapshot")
	}
	return snap
}

// TestEarlyCutoffSavesWork checks the paper's second claim: diverging
// candidates are detected at their first bad checkpoint, so the search
// executes far fewer checkpoints than candidates × log length.
func TestEarlyCutoffSavesWork(t *testing.T) {
	log, err := Record(build, cfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := log.Search(build, 500, 200)
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	earlyCut := 0
	for _, at := range res.Attempts {
		if at.Match {
			continue
		}
		diverged++
		if at.Checkpoints < len(log.Hashes) {
			earlyCut++
		}
		if at.DivergedAt < 0 {
			t.Errorf("non-matching attempt without divergence point: %+v", at)
		}
	}
	if diverged == 0 {
		t.Skip("every candidate matched; race did not vary in this range")
	}
	if earlyCut == 0 {
		t.Error("no diverging candidate was cut early")
	}
	worstCase := len(res.Attempts) * len(log.Hashes)
	if res.CheckpointsExecuted >= worstCase {
		t.Errorf("early cutoff saved nothing: %d vs worst case %d", res.CheckpointsExecuted, worstCase)
	}
	t.Logf("%d candidates, %d/%d checkpoints executed (worst case)",
		len(res.Attempts), res.CheckpointsExecuted, worstCase)
}

// TestSearchBudget checks exhaustion reporting.
func TestSearchBudget(t *testing.T) {
	// A 4-thread, highly racy program: a tiny budget will fail to match.
	b := func() sim.Program { return &racyRounds{nt: 4, rounds: 8} }
	log, err := Record(b, Config{Threads: 4, SwitchInterval: 1}, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := log.Search(b, 100000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attempts) != 3 {
		t.Errorf("%d attempts", len(res.Attempts))
	}
	if res.Found {
		t.Skip("improbable instant match; not an error")
	}
}

// TestRecordRejectsBadThreads checks that Record returns an error, before
// building or running anything, for a thread count below 1.
func TestRecordRejectsBadThreads(t *testing.T) {
	built := false
	b := func() sim.Program {
		built = true
		return build()
	}
	for _, threads := range []int{0, -1} {
		if _, err := Record(b, Config{Threads: threads}, 1); err == nil {
			t.Errorf("Record accepted %d threads", threads)
		}
	}
	if built {
		t.Error("a rejected config built its program")
	}
}
