package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"instantcheck/internal/ihash"
	"instantcheck/internal/mem"
	"instantcheck/internal/replay"
	"instantcheck/internal/sched"
)

// fuzzProg is a randomized workload: every thread performs a deterministic
// (per progSeed) sequence of stores, FP stores, mallocs, frees, locked
// read-modify-writes and barrier waits. It exercises every event the
// hashing schemes observe.
type fuzzProg struct {
	nt       int
	progSeed uint64
	steps    int

	global uint64
	shared uint64
	mu     *sched.Mutex
	bar    *sched.Barrier
}

func newFuzz(nt int, seed uint64, steps int) *fuzzProg {
	return &fuzzProg{nt: nt, progSeed: seed, steps: steps}
}

func (p *fuzzProg) Name() string { return "fuzz" }

func (p *fuzzProg) Threads() int { return p.nt }

func (p *fuzzProg) Setup(t *Thread) {
	p.global = t.AllocStatic("static:fuzz.global", 64, mem.KindWord)
	p.shared = t.AllocStatic("static:fuzz.shared", 8, mem.KindFloat)
	p.mu = t.Machine().NewMutex("fuzz")
	p.bar = t.Machine().NewBarrier("fuzz.bar")
	for i := 0; i < 64; i++ {
		t.Store(p.global+uint64(i)*8, p.progSeed*uint64(i+1))
	}
}

func (p *fuzzProg) Worker(t *Thread) {
	rng := rand.New(rand.NewSource(int64(p.progSeed) + int64(t.TID())*7919))
	var blocks []uint64
	for s := 0; s < p.steps; s++ {
		if s%13 == 7 {
			// Fixed-position barriers: every thread arrives the same
			// number of times regardless of its random op mix.
			t.BarrierWait(p.bar)
			continue
		}
		switch rng.Intn(5) {
		case 0: // store to a thread-owned slice of the global array
			i := t.TID()*8 + rng.Intn(8)
			t.Store(p.global+uint64(i)*8, rng.Uint64())
		case 1: // locked FP read-modify-write on shared state
			j := rng.Intn(8)
			t.Lock(p.mu)
			v := t.LoadF(p.shared + uint64(j)*8)
			t.StoreF(p.shared+uint64(j)*8, v+float64(rng.Intn(100))*0.25)
			t.Unlock(p.mu)
		case 2: // malloc + fill
			b := t.Malloc("fuzz.heap", rng.Intn(6)+1, mem.KindWord)
			t.Store(b, rng.Uint64())
			blocks = append(blocks, b)
		case 3: // free something
			if len(blocks) > 0 {
				k := rng.Intn(len(blocks))
				t.Free(blocks[k])
				blocks = append(blocks[:k], blocks[k+1:]...)
			}
		case 4: // pure compute + loads
			_ = t.Load(p.global + uint64(rng.Intn(64))*8)
			t.Compute(rng.Intn(20))
		}
	}
	// Closing barriers exercise checkpoints with the heap in varied states.
	for i := 0; i < 3; i++ {
		t.BarrierWait(p.bar)
	}
}

// runFuzz executes one fuzz run under the given scheme.
func runFuzz(t *testing.T, scheme Scheme, progSeed uint64, schedSeed int64, addrLog *replay.AddrLog) *Result {
	t.Helper()
	m := NewMachine(Config{
		Threads:      3,
		ScheduleSeed: schedSeed,
		Scheme:       scheme,
		AddrLog:      addrLog,
	})
	res, err := m.Run(newFuzz(3, progSeed, 40))
	if err != nil {
		t.Fatalf("fuzz run: %v", err)
	}
	return res
}

// TestIncrementalEqualsTraversal is the central cross-validation the paper
// performs between its Inc and Tr prototypes: for any program and any
// schedule, the incrementally maintained State Hash equals the hash
// obtained by traversing the whole live state — at EVERY checkpoint.
func TestIncrementalEqualsTraversal(t *testing.T) {
	f := func(progSeed uint64, schedSeed int64) bool {
		log := replay.NewAddrLog()
		inc := runFuzz(t, HWInc, progSeed, schedSeed, log)
		tr := runFuzz(t, SWTr, progSeed, schedSeed, log)
		if len(inc.Checkpoints) != len(tr.Checkpoints) {
			return false
		}
		for i := range inc.Checkpoints {
			if inc.Checkpoints[i].SH != tr.Checkpoints[i].SH {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSWIncEqualsHWInc checks the software incremental scheme computes the
// exact same hashes as the hardware model (they differ only in cost).
func TestSWIncEqualsHWInc(t *testing.T) {
	log := replay.NewAddrLog()
	hw := runFuzz(t, HWInc, 11, 5, log)
	sw := runFuzz(t, SWInc, 11, 5, log)
	for i := range hw.Checkpoints {
		if hw.Checkpoints[i].SH != sw.Checkpoints[i].SH {
			t.Fatalf("checkpoint %d: HW %s != SW %s", i, hw.Checkpoints[i].SH, sw.Checkpoints[i].SH)
		}
	}
}

// TestSameSeedSameResult checks exact re-execution: the same configuration
// reproduces identical hashes and counters (what the state-diff tool's
// re-execution relies on).
func TestSameSeedSameResult(t *testing.T) {
	f := func(schedSeed int64) bool {
		a := runFuzz(t, HWInc, 3, schedSeed, replay.NewAddrLog())
		b := runFuzz(t, HWInc, 3, schedSeed, replay.NewAddrLog())
		if a.Counters.Instr != b.Counters.Instr || a.Counters.Stores != b.Counters.Stores {
			return false
		}
		va, vb := a.SHVector(), b.SHVector()
		if len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// figure1Prog is the paper's example: G += L under a lock, 2 threads.
type figure1Prog struct {
	g  uint64
	mu *sched.Mutex
}

func (p *figure1Prog) Name() string { return "figure1" }
func (p *figure1Prog) Threads() int { return 2 }
func (p *figure1Prog) Setup(t *Thread) {
	p.g = t.AllocStatic("static:G", 1, mem.KindWord)
	t.Store(p.g, 2)
	p.mu = t.Machine().NewMutex("G")
}
func (p *figure1Prog) Worker(t *Thread) {
	l := []uint64{7, 3}[t.TID()]
	t.Lock(p.mu)
	t.Store(p.g, t.Load(p.g)+l)
	t.Unlock(p.mu)
}

// TestFigure1ExternallyDeterministic checks the paper's worked example
// end to end: many schedules, one final hash.
func TestFigure1ExternallyDeterministic(t *testing.T) {
	var first ihash.Digest
	for seed := int64(0); seed < 25; seed++ {
		m := NewMachine(Config{Threads: 2, ScheduleSeed: seed, Scheme: HWInc})
		res, err := m.Run(&figure1Prog{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Mem.Peek(mem.StaticBase) != 12 {
			t.Fatalf("G = %d, want 12", m.Mem.Peek(mem.StaticBase))
		}
		if seed == 0 {
			first = res.FinalSH()
		} else if res.FinalSH() != first {
			t.Fatalf("seed %d: SH %s != %s", seed, res.FinalSH(), first)
		}
	}
}

// allocFreeProg allocates, writes, and frees everything: its net hash
// contribution must vanish.
type allocFreeProg struct {
	nt  int
	bar *sched.Barrier
}

func (p *allocFreeProg) Name() string { return "allocfree" }
func (p *allocFreeProg) Threads() int { return p.nt }
func (p *allocFreeProg) Setup(t *Thread) {
	p.bar = t.Machine().NewBarrier("af.live")
}
func (p *allocFreeProg) Worker(t *Thread) {
	b := t.Malloc("af.block", 6, mem.KindWord)
	for i := 0; i < 6; i++ {
		t.Store(b+uint64(i)*8, uint64(t.TID()+1)*1000+uint64(i))
	}
	// Checkpoint with every block still live: the "before" state the free
	// erasure must fully undo.
	t.BarrierWait(p.bar)
	t.Free(b)
}

// TestFreeErasesState checks freed memory leaves the hashed state entirely
// (§7.2: freed buffers are "no longer part of the program state"): before
// the frees the checkpointed State Hash is nonzero, after them it is
// exactly Zero — whether the erase pairs were routed through the store
// buffer's batch path (HWInc) or hashed inline (SWIncNonAtomic).
func TestFreeErasesState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme Scheme
	}{
		{"buffered", HWInc},
		{"inline", SWIncNonAtomic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(Config{Threads: 2, ScheduleSeed: 9, Scheme: tc.scheme})
			res, err := m.Run(&allocFreeProg{nt: 2})
			if err != nil {
				t.Fatal(err)
			}
			live := res.Checkpoints[0]
			if live.Label != "af.live" || live.SH == ihash.Zero || live.LiveWords != 12 {
				t.Errorf("pre-free checkpoint = %q SH %s live %d, want af.live/nonzero/12",
					live.Label, live.SH, live.LiveWords)
			}
			if sh := res.FinalSH(); sh != ihash.Zero {
				t.Errorf("SH = %s, want zero after everything was freed", sh)
			}
			if n := res.Checkpoints[len(res.Checkpoints)-1].LiveWords; n != 0 {
				t.Errorf("live words = %d", n)
			}
			if res.Counters.FreeEraseWords != 12 {
				t.Errorf("FreeEraseWords = %d", res.Counters.FreeEraseWords)
			}
			if buffered := tc.scheme == HWInc; (res.MHMStats.BufferFlushes > 0) != buffered {
				t.Errorf("BufferFlushes = %d with buffering %v", res.MHMStats.BufferFlushes, buffered)
			}
		})
	}
}

// ignoreProg writes a deterministic word and a nondeterministic word (the
// winner of a race) at a dedicated site.
type ignoreProg struct {
	det    uint64
	nondet *mem.Block
	bar    *sched.Barrier
}

func (p *ignoreProg) Name() string { return "ignore" }
func (p *ignoreProg) Threads() int { return 2 }
func (p *ignoreProg) Setup(t *Thread) {
	p.det = t.AllocStatic("static:ig.det", 1, mem.KindWord)
}
func (p *ignoreProg) Worker(t *Thread) {
	if t.TID() == 0 {
		t.Store(p.det, 42)
	}
	b := t.Malloc("ig.scratch", 2, mem.KindWord) // both threads allocate
	t.Store(b, uint64(t.TID())+100)              // content depends on who got which seq
}

// TestIgnoreSetMakesDeterministic checks §2.2 deletion: a structure whose
// contents are schedule-dependent stops affecting the hash once ignored.
func TestIgnoreSetMakesDeterministic(t *testing.T) {
	run := func(seed int64, ig *IgnoreSet) ihash.Digest {
		m := NewMachine(Config{
			Threads: 2, ScheduleSeed: seed, Scheme: HWInc,
			AddrLog: nil, Ignore: ig,
		})
		res, err := m.Run(&ignoreProg{})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalSH()
	}
	// Without ignoring, some pair of seeds must disagree (the two threads'
	// allocations swap order).
	raw := map[ihash.Digest]bool{}
	for seed := int64(0); seed < 12; seed++ {
		raw[run(seed, nil)] = true
	}
	if len(raw) < 2 {
		t.Fatal("race did not manifest; test needs different seeds")
	}
	ig := NewIgnoreSet(IgnoreRule{Site: "ig.scratch"})
	ignored := map[ihash.Digest]bool{}
	for seed := int64(0); seed < 12; seed++ {
		ignored[run(seed, ig)] = true
	}
	if len(ignored) != 1 {
		t.Fatalf("ignore set left %d distinct hashes", len(ignored))
	}
}

// TestIgnoreAdjustEqualsNeverWritten checks the deletion math: the
// adjusted hash equals the hash of an execution that never wrote the
// ignored words at all.
func TestIgnoreAdjustEqualsNeverWritten(t *testing.T) {
	type prog struct {
		writeScratch bool
		base         *uint64
	}
	build := func(writeScratch bool) Program {
		return &funcProg{
			nt: 1,
			setup: func(t *Thread) {
				t.AllocStatic("static:x", 1, mem.KindWord)
			},
			worker: func(t *Thread) {
				t.Store(mem.StaticBase, 7)
				b := t.Malloc("scratch", 2, mem.KindWord)
				if writeScratch {
					t.Store(b, 12345)
					t.Store(b+8, 999)
				}
			},
		}
	}
	_ = prog{}
	ig := NewIgnoreSet(IgnoreRule{Site: "scratch"})
	m1 := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc, Ignore: ig})
	r1, err := m1.Run(build(true))
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
	r2, err := m2.Run(build(false))
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalSH() != r2.FinalSH() {
		t.Errorf("adjusted %s != never-written %s", r1.FinalSH(), r2.FinalSH())
	}
}

// funcProg adapts closures to the Program interface for small tests.
type funcProg struct {
	nt     int
	name   string
	setup  func(*Thread)
	worker func(*Thread)
}

func (p *funcProg) Name() string {
	if p.name == "" {
		return "test"
	}
	return p.name
}
func (p *funcProg) Threads() int { return p.nt }
func (p *funcProg) Setup(t *Thread) {
	if p.setup != nil {
		p.setup(t)
	}
}
func (p *funcProg) Worker(t *Thread) {
	if p.worker != nil {
		p.worker(t)
	}
}

// TestFPRoundingCollapsesHashes checks rounding makes sub-granularity FP
// differences hash-equal in both incremental and traversal schemes.
func TestFPRoundingCollapsesHashes(t *testing.T) {
	build := func(v float64) Program {
		return &funcProg{nt: 1, setup: func(t *Thread) {
			t.AllocStatic("static:f", 1, mem.KindFloat)
		}, worker: func(t *Thread) {
			t.StoreF(mem.StaticBase, v)
		}}
	}
	for _, scheme := range []Scheme{HWInc, SWTr} {
		run := func(v float64, round bool) ihash.Digest {
			m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: scheme, RoundFP: round})
			res, err := m.Run(build(v))
			if err != nil {
				t.Fatal(err)
			}
			return res.FinalSH()
		}
		if run(1.2345000001, true) != run(1.2345000009, true) {
			t.Errorf("%v: rounding did not collapse", scheme)
		}
		if run(1.2345000001, false) == run(1.2345000009, false) {
			t.Errorf("%v: bit-by-bit mode collapsed distinct values", scheme)
		}
		if run(1.234, true) == run(1.236, true) {
			t.Errorf("%v: rounding collapsed distinct buckets", scheme)
		}
	}
}

// TestKindMismatchPanics checks the FP/integer store discipline the §5
// compiler marking provides.
func TestKindMismatchPanics(t *testing.T) {
	m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
	_, err := m.Run(&funcProg{nt: 1,
		setup:  func(t *Thread) { t.AllocStatic("static:w", 1, mem.KindWord) },
		worker: func(t *Thread) { t.StoreF(mem.StaticBase, 1.5) },
	})
	if err == nil || !strings.Contains(err.Error(), "kind mismatch") {
		t.Errorf("err = %v", err)
	}
}

// racyDetProg has a write-write race in which both threads store the SAME
// value, so it is externally deterministic — but instrumentation that
// reads the old value non-atomically can observe a stale old value and
// corrupt the hash (§4.1).
type racyDetProg struct{ x uint64 }

func (p *racyDetProg) Name() string { return "racydet" }
func (p *racyDetProg) Threads() int { return 2 }
func (p *racyDetProg) Setup(t *Thread) {
	p.x = t.AllocStatic("static:x", 1, mem.KindWord)
}
func (p *racyDetProg) Worker(t *Thread) {
	for i := 0; i < 30; i++ {
		t.Store(p.x, uint64(i)*3+7) // both threads write identical sequences
	}
}

// TestNonAtomicInstrumentationFalseAlarm demonstrates the §4.1 caveat: the
// atomic schemes agree with traversal on every run, while the non-atomic
// software scheme eventually diverges from the true state hash under a
// write-write race — a false nondeterminism alarm.
func TestNonAtomicInstrumentationFalseAlarm(t *testing.T) {
	truth := func(seed int64) ihash.Digest {
		m := NewMachine(Config{Threads: 2, ScheduleSeed: seed, Scheme: SWTr, SwitchInterval: 1})
		res, err := m.Run(&racyDetProg{})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalSH()
	}
	atomicOK := true
	sawCorruption := false
	for seed := int64(0); seed < 30; seed++ {
		want := truth(seed)
		mA := NewMachine(Config{Threads: 2, ScheduleSeed: seed, Scheme: HWInc, SwitchInterval: 1})
		ra, err := mA.Run(&racyDetProg{})
		if err != nil {
			t.Fatal(err)
		}
		if ra.FinalSH() != want {
			atomicOK = false
		}
		mN := NewMachine(Config{Threads: 2, ScheduleSeed: seed, Scheme: SWIncNonAtomic, SwitchInterval: 1})
		rn, err := mN.Run(&racyDetProg{})
		if err != nil {
			t.Fatal(err)
		}
		if rn.FinalSH() != want {
			sawCorruption = true
		}
	}
	if !atomicOK {
		t.Error("atomic incremental hashing diverged from traversal truth")
	}
	if !sawCorruption {
		t.Error("non-atomic instrumentation never corrupted the hash; the §4.1 caveat did not manifest")
	}
}

// TestOutputHashing checks §4.3: the output-stream hash sees content and
// write order.
func TestOutputHashing(t *testing.T) {
	run := func(order bool) uint64 {
		m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
		res, err := m.Run(&funcProg{nt: 1, worker: func(t *Thread) {
			if order {
				t.Write([]byte("hello "))
				t.Write([]byte("world"))
			} else {
				t.Write([]byte("world"))
				t.Write([]byte("hello "))
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputBytes != 11 {
			t.Fatalf("output bytes = %d", res.OutputBytes)
		}
		return res.OutputHash
	}
	if run(true) != run(true) {
		t.Error("same stream hashed differently")
	}
	if run(true) == run(false) {
		t.Error("reordered stream hashed identically")
	}
}

// TestMultiStreamOutput checks per-descriptor stream hashing: streams are
// independent, and the same bytes routed to different descriptors are a
// different output signature.
func TestMultiStreamOutput(t *testing.T) {
	run := func(fd int) *Result {
		m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
		res, err := m.Run(&funcProg{nt: 1, worker: func(th *Thread) {
			th.Write([]byte("log line\n"))
			th.WriteFd(fd, []byte("payload"))
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(2)
	b := run(3)
	if len(a.Outputs) != 2 {
		t.Fatalf("%d streams", len(a.Outputs))
	}
	if a.Outputs[Stdout] != b.Outputs[Stdout] {
		t.Error("stdout stream differs")
	}
	if a.Outputs[2].Hash != b.Outputs[3].Hash {
		t.Error("identical payloads on different descriptors hash differently")
	}
	if a.OutputHash != a.Outputs[Stdout].Hash {
		t.Error("OutputHash is not the stdout hash")
	}
	if a.OutputBytes != 16 {
		t.Errorf("OutputBytes = %d", a.OutputBytes)
	}
}

// TestCountersSanity checks the cost-model counters on a fixed program.
func TestCountersSanity(t *testing.T) {
	m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
	res, err := m.Run(&funcProg{nt: 1,
		setup: func(t *Thread) { t.AllocStatic("static:a", 4, mem.KindWord) },
		worker: func(t *Thread) {
			t.Store(mem.StaticBase, 1)
			t.Store(mem.StaticBase+8, 2)
			_ = t.Load(mem.StaticBase)
			b := t.Malloc("h", 3, mem.KindWord)
			t.Free(b)
			t.Compute(100)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	// Setup stores nothing here; worker: 2 stores, 1 load, 1 malloc(3), 1 free.
	if c.Stores != 2 || c.Loads != 1 {
		t.Errorf("stores=%d loads=%d", c.Stores, c.Loads)
	}
	if c.AllocZeroWords != 3 || c.FreeEraseWords != 3 {
		t.Errorf("zero=%d erase=%d", c.AllocZeroWords, c.FreeEraseWords)
	}
	if c.Checkpoints != 1 || c.CheckpointWords != 4 {
		t.Errorf("checkpoints=%d words=%d", c.Checkpoints, c.CheckpointWords)
	}
	if c.Instr < 100 {
		t.Errorf("Instr = %d", c.Instr)
	}
	if res.MHMStats.HashedStores == 0 {
		t.Error("MHM saw no stores")
	}
}

// TestMachineReusePanics checks the one-run contract.
func TestMachineReusePanics(t *testing.T) {
	m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
	if _, err := m.Run(&funcProg{nt: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on reuse")
		}
	}()
	_, _ = m.Run(&funcProg{nt: 1})
}

// TestThreadCountMismatch checks the configuration guard.
func TestThreadCountMismatch(t *testing.T) {
	m := NewMachine(Config{Threads: 2, ScheduleSeed: 1, Scheme: HWInc})
	if _, err := m.Run(&funcProg{nt: 3}); err == nil {
		t.Error("no error on thread-count mismatch")
	}
}

// TestStopHashingThread checks the per-thread start/stop_hashing interface:
// stores made while stopped do not enter the hash, making the final SH
// equal to a run that never performed them.
func TestStopHashingThread(t *testing.T) {
	run := func(doHidden bool) ihash.Digest {
		m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
		res, err := m.Run(&funcProg{nt: 1,
			setup: func(t *Thread) { t.AllocStatic("static:a", 2, mem.KindWord) },
			worker: func(t *Thread) {
				t.Store(mem.StaticBase, 5)
				if doHidden {
					t.StopHashing()
					t.Store(mem.StaticBase+8, 77) // analysis-tool write
					t.Store(mem.StaticBase+8, 0)  // restored before re-enable
					t.StartHashing()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalSH()
	}
	if run(true) != run(false) {
		t.Error("stop_hashing write leaked into the hash")
	}
}

// TestBarrierCheckpointLabels checks checkpoint bookkeeping.
func TestBarrierCheckpointLabels(t *testing.T) {
	p := &funcProg{nt: 2}
	var bar *sched.Barrier
	p.setup = func(t *Thread) {
		bar = t.Machine().NewBarrier("phase")
	}
	p.worker = func(t *Thread) {
		t.BarrierWait(bar)
		t.BarrierWait(bar)
	}
	m := NewMachine(Config{Threads: 2, ScheduleSeed: 1, Scheme: HWInc})
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 3 {
		t.Fatalf("%d checkpoints", len(res.Checkpoints))
	}
	if res.Checkpoints[0].Label != "phase" || res.Checkpoints[2].Label != "end" {
		t.Error("labels wrong")
	}
	for i, cp := range res.Checkpoints {
		if cp.Ordinal != i {
			t.Error("ordinals wrong")
		}
	}
}

// TestProgrammerCheckpoint checks §2.3's programmer-specified checking
// points: a single-threaded loop checkpointing each iteration yields one
// checkpoint per iteration plus the end, all deterministic across seeds.
func TestProgrammerCheckpoint(t *testing.T) {
	build := func() Program {
		return &funcProg{nt: 1,
			setup: func(th *Thread) { th.AllocStatic("static:acc", 1, mem.KindWord) },
			worker: func(th *Thread) {
				for i := 0; i < 4; i++ {
					th.Store(mem.StaticBase, uint64(i)*3)
					th.Checkpoint("iter")
				}
			},
		}
	}
	var first []ihash.Digest
	for seed := int64(0); seed < 5; seed++ {
		m := NewMachine(Config{Threads: 1, ScheduleSeed: seed, Scheme: HWInc})
		res, err := m.Run(build())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Checkpoints) != 5 { // 4 iterations + end
			t.Fatalf("%d checkpoints", len(res.Checkpoints))
		}
		if res.Checkpoints[0].Label != "iter" {
			t.Fatal("label")
		}
		v := res.SHVector()
		if seed == 0 {
			first = v
		} else {
			for i := range v {
				if v[i] != first[i] {
					t.Fatalf("seed %d checkpoint %d differs", seed, i)
				}
			}
		}
	}
}

// TestSnapshotAt checks snapshot capture at requested ordinals only.
func TestSnapshotAt(t *testing.T) {
	p := &funcProg{nt: 1,
		setup:  func(t *Thread) { t.AllocStatic("static:a", 1, mem.KindWord) },
		worker: func(t *Thread) { t.Store(mem.StaticBase, 3) },
	}
	m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc, SnapshotAt: map[int]bool{0: true}})
	res, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints[0].Snapshot == nil {
		t.Error("requested snapshot missing")
	}
	if v, ok := res.Checkpoints[0].Snapshot.Word(mem.StaticBase); !ok || v != 3 {
		t.Error("snapshot content wrong")
	}
}

// TestEnvCallsRequireEnv checks the guard against unreplayed randomness.
func TestEnvCallsRequireEnv(t *testing.T) {
	m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
	_, err := m.Run(&funcProg{nt: 1, worker: func(t *Thread) { t.Rand() }})
	if err == nil || !strings.Contains(err.Error(), "Config.Env") {
		t.Errorf("err = %v", err)
	}
}

// TestSchemeStrings pins diagnostics.
func TestSchemeStrings(t *testing.T) {
	for s, want := range map[Scheme]string{
		Native: "Native", HWInc: "HW-InstantCheck_Inc", SWInc: "SW-InstantCheck_Inc",
		SWIncNonAtomic: "SW-InstantCheck_Inc(non-atomic)", SWTr: "SW-InstantCheck_Tr",
	} {
		if s.String() != want {
			t.Errorf("%d: %q", s, s.String())
		}
	}
	if Native.Hashing() || !SWTr.Hashing() || !HWInc.Incremental() || SWTr.Incremental() {
		t.Error("scheme predicates")
	}
}
