package racefilter

import (
	"testing"

	"instantcheck/internal/mem"
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// toy adapts closures to sim.Program.
type toy struct {
	nt     int
	setup  func(*sim.Thread)
	worker func(*sim.Thread)
}

func (p *toy) Name() string { return "toy" }
func (p *toy) Threads() int { return p.nt }
func (p *toy) Setup(t *sim.Thread) {
	if p.setup != nil {
		p.setup(t)
	}
}
func (p *toy) Worker(t *sim.Thread) {
	if p.worker != nil {
		p.worker(t)
	}
}

// TestNoFalsePositiveUnderLock checks lock-ordered accesses never race.
func TestNoFalsePositiveUnderLock(t *testing.T) {
	var g uint64
	var mu *sched.Mutex
	build := func() sim.Program {
		return &toy{nt: 2,
			setup: func(th *sim.Thread) {
				g = th.AllocStatic("static:g", 1, mem.KindWord)
				mu = th.Machine().NewMutex("g")
			},
			worker: func(th *sim.Thread) {
				for i := 0; i < 5; i++ {
					th.Lock(mu)
					th.Store(g, th.Load(g)+1)
					th.Unlock(mu)
				}
			},
		}
	}
	races, err := Detect(build, Config{Threads: 2, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(races) != 0 {
		t.Errorf("false positives: %+v", races)
	}
}

// TestNoFalsePositiveAcrossBarrier checks barrier-separated phases never
// race (the disjoint-write phase pattern of the bit-deterministic apps).
func TestNoFalsePositiveAcrossBarrier(t *testing.T) {
	var arr uint64
	var bar *sched.Barrier
	build := func() sim.Program {
		return &toy{nt: 2,
			setup: func(th *sim.Thread) {
				arr = th.AllocStatic("static:a", 2, mem.KindWord)
				bar = th.Machine().NewBarrier("b")
			},
			worker: func(th *sim.Thread) {
				// Phase 1: write own slot; phase 2: read the OTHER slot.
				th.Store(arr+uint64(th.TID())*8, uint64(th.TID()+1))
				th.BarrierWait(bar)
				_ = th.Load(arr + uint64(1-th.TID())*8)
			},
		}
	}
	races, err := Detect(build, Config{Threads: 2, Runs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(races) != 0 {
		t.Errorf("false positives across barrier: %+v", races)
	}
}

// TestSetupHappensBeforeWorkers checks init-thread writes never race with
// worker reads.
func TestSetupHappensBeforeWorkers(t *testing.T) {
	var g uint64
	build := func() sim.Program {
		return &toy{nt: 2,
			setup: func(th *sim.Thread) {
				g = th.AllocStatic("static:g", 1, mem.KindWord)
				th.Store(g, 42)
			},
			worker: func(th *sim.Thread) { _ = th.Load(g) },
		}
	}
	races, err := Detect(build, Config{Threads: 2, Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(races) != 0 {
		t.Errorf("setup/worker false positive: %+v", races)
	}
}

// TestDetectsRaces checks the three access-pair kinds are found and
// attributed.
func TestDetectsRaces(t *testing.T) {
	var g uint64
	build := func() sim.Program {
		return &toy{nt: 2,
			setup: func(th *sim.Thread) {
				g = th.AllocStatic("static:racy", 1, mem.KindWord)
			},
			worker: func(th *sim.Thread) {
				if th.TID() == 0 {
					th.Store(g, 7) // unordered write
				} else {
					_ = th.Load(g) // unordered read
					th.Store(g, 9) // unordered write
				}
			},
		}
	}
	races, err := Detect(build, Config{Threads: 2, Runs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(races) == 0 {
		t.Fatal("no races detected")
	}
	kinds := map[AccessKind]bool{}
	for _, r := range races {
		kinds[r.Kind] = true
		if r.Site != "static:racy" {
			t.Errorf("race not attributed: %+v", r)
		}
	}
	if !kinds[WriteWrite] {
		t.Error("write-write race missed")
	}
	if !kinds[WriteRead] && !kinds[ReadWrite] {
		t.Error("read/write races missed")
	}
}

// TestBenignRaceFiltered reproduces the paper's volrend story (§7.2.1) in
// miniature: a racy sense-reversing flag is a true data race, but every
// schedule converges to the same state — the filter classifies it benign.
func TestBenignRaceFiltered(t *testing.T) {
	var count, sense uint64
	var mu *sched.Mutex
	build := func() sim.Program {
		return &toy{nt: 2,
			setup: func(th *sim.Thread) {
				count = th.AllocStatic("static:hc.count", 1, mem.KindWord)
				sense = th.AllocStatic("static:hc.sense", 1, mem.KindWord)
				mu = th.Machine().NewMutex("hc")
			},
			worker: func(th *sim.Thread) {
				mySense := th.Load(sense) // racy read: the benign race
				th.Lock(mu)
				c := th.Load(count) + 1
				if c == 2 {
					th.Store(count, 0)
					th.Store(sense, 1-mySense)
					th.Unlock(mu)
					return
				}
				th.Store(count, c)
				th.Unlock(mu)
				for th.Load(sense) == mySense {
					th.Yield()
				}
			},
		}
	}
	cl, err := Classify(build, Config{Threads: 2, Runs: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Verdicts) == 0 {
		t.Fatal("the hand-coded barrier race was not detected")
	}
	if !cl.Deterministic {
		t.Fatal("program should be externally deterministic")
	}
	for _, v := range cl.Verdicts {
		if !v.Benign {
			t.Errorf("benign race misclassified harmful: %+v", v.Race)
		}
	}
	if cl.BenignCount() != len(cl.Verdicts) {
		t.Error("BenignCount mismatch")
	}
}

// TestHarmfulRaceFlagged checks a last-writer-wins race whose outcome
// persists is classified harmful.
func TestHarmfulRaceFlagged(t *testing.T) {
	var g uint64
	build := func() sim.Program {
		return &toy{nt: 2,
			setup: func(th *sim.Thread) {
				g = th.AllocStatic("static:winner", 1, mem.KindWord)
			},
			worker: func(th *sim.Thread) {
				th.Compute(3)
				th.Store(g, uint64(th.TID())+1)
			},
		}
	}
	cl, err := Classify(build, Config{Threads: 2, Runs: 12})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Deterministic {
		t.Fatal("last-writer-wins program classified deterministic")
	}
	found := false
	for _, v := range cl.Verdicts {
		if v.Race.Site == "static:winner" && v.Race.Kind == WriteWrite {
			found = true
			if v.Benign {
				t.Error("harmful race classified benign")
			}
			if v.DistinctValues < 2 {
				t.Errorf("distinct values = %d", v.DistinctValues)
			}
		}
	}
	if !found {
		t.Fatal("write-write race on winner not detected")
	}
}

// TestAccessKindStrings pins diagnostics.
func TestAccessKindStrings(t *testing.T) {
	if WriteWrite.String() != "write-write" || ReadWrite.String() != "read-write" || WriteRead.String() != "write-read" {
		t.Error("kind strings")
	}
}

// TestConfigRejectsBadCounts checks that Detect and Classify return an
// error, before building or running anything, for a thread count outside
// 1..MaxThreads or a negative run count.
func TestConfigRejectsBadCounts(t *testing.T) {
	built := false
	build := func() sim.Program {
		built = true
		return &toy{nt: 2}
	}
	for _, cfg := range []Config{
		{Threads: 0},
		{Threads: -2},
		{Threads: MaxThreads + 1},
		{Threads: 2, Runs: -1},
	} {
		if _, err := Detect(build, cfg); err == nil {
			t.Errorf("Detect accepted %+v", cfg)
		}
		if _, err := Classify(build, cfg); err == nil {
			t.Errorf("Classify accepted %+v", cfg)
		}
	}
	if built {
		t.Error("a rejected config built its program")
	}
}
