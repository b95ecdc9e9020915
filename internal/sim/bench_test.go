package sim

import (
	"testing"

	"instantcheck/internal/mem"
	"instantcheck/internal/replay"
)

// benchRun executes one fuzz run under the given scheme, for comparing the
// runtime (not modeled) cost of the schemes inside this simulator.
func benchRun(b *testing.B, scheme Scheme) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		m := NewMachine(Config{
			Threads:      4,
			ScheduleSeed: int64(i),
			Scheme:       scheme,
			AddrLog:      replay.NewAddrLog(),
		})
		if _, err := m.Run(newFuzz(4, 99, 200)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineNative measures the simulator with checking off.
func BenchmarkMachineNative(b *testing.B) { benchRun(b, Native) }

// BenchmarkMachineHWInc measures the HW-InstantCheck_Inc model.
func BenchmarkMachineHWInc(b *testing.B) { benchRun(b, HWInc) }

// BenchmarkMachineSWTr measures traversal hashing at every checkpoint.
func BenchmarkMachineSWTr(b *testing.B) { benchRun(b, SWTr) }

// travState is the traverse benchmark's workload: a 256-page (1 MiB) live
// state with every word nonzero, the shape a barrier-heavy SPLASH-2 kernel
// presents at its checkpoints.
type travState struct{ base uint64 }

const travStatePages = 256

func (p *travState) Name() string { return "travstate" }
func (p *travState) Threads() int { return 1 }
func (p *travState) Setup(t *Thread) {
	words := travStatePages * mem.PageWords
	p.base = t.AllocStatic("static:travstate", words, mem.KindWord)
	for w := 0; w < words; w++ {
		t.Store(p.base+uint64(w)*mem.WordSize, uint64(w)|1)
	}
}
func (p *travState) Worker(t *Thread) {}

// BenchmarkTraverseHash isolates the per-checkpoint sweep cost on the
// travState state. After the run's end checkpoint has seeded the page
// cache, each iteration dirties pages with one store each and takes a
// sweep: the full variant dirties every page (the cost of a full sweep),
// the delta variant one of every 16 (the O(dirty) resweep). Both assert
// that the delta path was actually taken, so the CI bench-smoke pass (one
// iteration of every benchmark) fails if delta mode silently regresses to
// full sweeps.
func BenchmarkTraverseHash(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		stride int // pages between dirtied pages
	}{
		{"full", 1},
		{"delta", 16},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: SWTr})
			prog := &travState{}
			if _, err := m.Run(prog); err != nil {
				b.Fatal(err)
			}
			var dirtyAddrs []uint64
			for pn := 0; pn < travStatePages; pn += cfg.stride {
				dirtyAddrs = append(dirtyAddrs, prog.base+uint64(pn*mem.PageWords*mem.WordSize))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, a := range dirtyAddrs {
					m.Mem.Store(a, uint64(i)|1)
				}
				b.StartTimer()
				_ = m.traverseHash()
			}
			b.StopTimer()
			if m.counters.TraverseDeltaSweeps == 0 {
				b.Fatal("the sweep never took the delta path")
			}
		})
	}
}
