package sim

import (
	"math/rand"
	"testing"

	"instantcheck/internal/mem"
	"instantcheck/internal/replay"
)

// bufStreamProg is the store-buffer torture workload: a randomized mix of
// stores, FP stores, malloc/free churn, explicit checkpoints, hashing-gate
// toggles and machine-wide rounding flips — every event that can interleave
// with a buffered window. All sync-free, so any schedule is comparable.
type bufStreamProg struct {
	nt       int
	progSeed uint64
	steps    int

	global uint64
	fps    uint64
}

func (p *bufStreamProg) Name() string { return "bufstream" }
func (p *bufStreamProg) Threads() int { return p.nt }
func (p *bufStreamProg) Setup(t *Thread) {
	p.global = t.AllocStatic("static:buf.global", 32, mem.KindWord)
	p.fps = t.AllocStatic("static:buf.fps", 8*p.nt, mem.KindFloat)
}
func (p *bufStreamProg) Worker(t *Thread) {
	rng := rand.New(rand.NewSource(int64(p.progSeed) + int64(t.TID())*7919))
	var blocks []uint64
	for s := 0; s < p.steps; s++ {
		switch rng.Intn(12) {
		case 0, 1, 2, 3: // store to a thread-owned slice (hot: coalesces)
			i := t.TID()*8 + rng.Intn(8)
			t.Store(p.global+uint64(i)*8, rng.Uint64())
		case 4, 5: // FP store (exercises rounding at drain)
			j := t.TID()*8 + rng.Intn(8)
			t.StoreF(p.fps+uint64(j)*8, float64(rng.Intn(1000))/7.0)
		case 6: // malloc + fill
			b := t.Malloc("buf.heap", rng.Intn(4)+1, mem.KindWord)
			t.Store(b, rng.Uint64())
			blocks = append(blocks, b)
		case 7: // free — the erase pair rides the batch path
			if len(blocks) > 0 {
				k := rng.Intn(len(blocks))
				t.Free(blocks[k])
				blocks = append(blocks[:k], blocks[k+1:]...)
			}
		case 8: // explicit checkpoint: TH becomes observable mid-window
			if t.TID() == 0 {
				t.Checkpoint("cp")
			}
		case 9: // hashing gate toggle (analysis-tool windows, §3.3)
			if rng.Intn(2) == 0 {
				t.StopHashing()
				t.Store(p.global+uint64(t.TID()*8)*8, rng.Uint64())
				t.StartHashing()
			}
		case 10: // machine-wide rounding flip: must drain every buffer
			if t.TID() == 0 {
				t.Machine().SetFPRounding(rng.Intn(2) == 0)
			}
		case 11: // pure compute: varies preemption alignment
			t.Compute(rng.Intn(10))
		}
	}
	for _, b := range blocks {
		t.Free(b)
	}
}

// runBufStream executes the torture workload once.
func runBufStream(t *testing.T, scheme Scheme, progSeed uint64, schedSeed int64, log *replay.AddrLog) *Result {
	t.Helper()
	m := NewMachine(Config{
		Threads:      3,
		ScheduleSeed: schedSeed,
		Scheme:       scheme,
		AddrLog:      log,
	})
	res, err := m.Run(&bufStreamProg{nt: 3, progSeed: progSeed, steps: 60})
	if err != nil {
		t.Fatalf("bufstream run: %v", err)
	}
	return res
}

// TestStoreBufferSchemeGate checks the buffer only attaches to the true
// incremental schemes: SW-InstantCheck_NonAtomic keeps its naive inline
// instrumentation (its §4.1 race window must stay observable), and the
// traversal scheme has no per-store hashing to batch.
func TestStoreBufferSchemeGate(t *testing.T) {
	for _, scheme := range []Scheme{SWIncNonAtomic, SWTr, Native} {
		m := NewMachine(Config{Threads: 2, ScheduleSeed: 1, Scheme: scheme})
		res, err := m.Run(&allocFreeProg{nt: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.MHMStats.BufferFlushes != 0 || res.Counters.StoreBufferFlushes != 0 {
			t.Errorf("%v: store buffer attached (flushes=%d)", scheme, res.MHMStats.BufferFlushes)
		}
	}
}

// TestStoreBufferCountersMirror checks the run-end copy of the aggregated
// buffer stats into the cost-model counters.
func TestStoreBufferCountersMirror(t *testing.T) {
	res := runBufStream(t, HWInc, 7, 8, replay.NewAddrLog())
	c, s := res.Counters, res.MHMStats
	if c.StoreBufferFlushes != s.BufferFlushes || c.StoreBufferDrainedWords != s.DrainedWords ||
		c.StoreBufferCoalesced != s.CoalescedStores {
		t.Errorf("counters %+v do not mirror MHM stats %+v", c, s)
	}
	if s.BufferFlushes == 0 || s.DrainedWords == 0 {
		t.Errorf("buffered run did no batch work: %+v", s)
	}
}
