package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"instantcheck/internal/fpround"
	"instantcheck/internal/mem"
	"instantcheck/internal/replay"
	"instantcheck/internal/sched"
)

// TestCondVariables drives a producer/consumer through the Thread-level
// condition-variable API.
func TestCondVariables(t *testing.T) {
	var mu *sched.Mutex
	var avail *sched.Cond
	var q, out uint64
	p := &funcProg{nt: 3,
		setup: func(th *Thread) {
			q = th.AllocStatic("static:q", 2, mem.KindWord) // {count, next}
			out = th.AllocStatic("static:out", 8, mem.KindWord)
			mu = th.Machine().NewMutex("q")
			avail = th.Machine().NewCond("avail", mu)
		},
		worker: func(th *Thread) {
			if th.TID() == 0 { // producer: publish 8 items
				for i := 0; i < 8; i++ {
					th.Lock(mu)
					th.Store(q, th.Load(q)+1)
					if i == 7 {
						th.CondBroadcast(avail)
					} else {
						th.CondSignal(avail)
					}
					th.Unlock(mu)
				}
				return
			}
			for { // consumers: each item goes to a distinct out slot
				th.Lock(mu)
				for th.Load(q) == 0 {
					if th.Load(q+8) >= 8 { // all consumed
						th.Unlock(mu)
						return
					}
					th.CondWait(avail)
				}
				th.Store(q, th.Load(q)-1)
				slot := th.Load(q + 8)
				th.Store(q+8, slot+1)
				th.Unlock(mu)
				th.Store(out+slot*8, slot+100)
				if slot == 7 {
					th.Lock(mu)
					th.CondBroadcast(avail) // release any waiter at the end
					th.Unlock(mu)
				}
			}
		},
	}
	m := NewMachine(Config{Threads: 3, ScheduleSeed: 5, Scheme: HWInc})
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if m.Mem.BlockAt(out) == nil {
		t.Fatal("out block missing")
	}
	for i := 0; i < 8; i++ {
		if got := m.Mem.Peek(out + uint64(i)*8); got != uint64(i+100) {
			t.Errorf("out[%d] = %d", i, got)
		}
	}
}

// TestGettimeofdayAndYield covers the env clock and explicit yields.
func TestGettimeofdayAndYield(t *testing.T) {
	var stamps []int64
	p := &funcProg{nt: 2, worker: func(th *Thread) {
		th.Yield()
		stamps = append(stamps, th.Gettimeofday())
		th.Yield()
	}}
	env := replay.NewEnv(3)
	m := NewMachine(Config{Threads: 2, ScheduleSeed: 1, Scheme: HWInc, Env: env})
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 2 {
		t.Fatalf("%d stamps", len(stamps))
	}
	// Replay: a second run returns the same per-thread values.
	first := append([]int64(nil), stamps...)
	stamps = nil
	m2 := NewMachine(Config{Threads: 2, ScheduleSeed: 99, Scheme: HWInc, Env: env})
	if _, err := m2.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 2 {
		t.Fatal("second run stamps")
	}
	// Same multiset (schedule may reorder which thread appended first).
	if !(first[0] == stamps[0] && first[1] == stamps[1]) &&
		!(first[0] == stamps[1] && first[1] == stamps[0]) {
		t.Errorf("gettimeofday not replayed: %v vs %v", first, stamps)
	}
}

// TestSetFPRounding covers mid-run rounding toggles: the machine-level
// switch flips every unit.
func TestSetFPRounding(t *testing.T) {
	m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc, Rounding: fpround.Default})
	p := &funcProg{nt: 1,
		setup: func(th *Thread) { th.AllocStatic("static:f", 2, mem.KindFloat) },
		worker: func(th *Thread) {
			th.Machine().SetFPRounding(true)
			th.StoreF(mem.StaticBase, 1.23456789)
			th.Machine().SetFPRounding(false)
			th.StoreF(mem.StaticBase+8, 1.23456789)
		},
	}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	// The first store was rounded inside the hash; the second bit-exact.
	// Both physical values are full precision (rounding affects hashing
	// only).
	if m.Mem.Peek(mem.StaticBase) != m.Mem.Peek(mem.StaticBase+8) {
		t.Error("rounding must not change stored values")
	}
}

// TestMachineAccessors covers trivial getters and thread metadata.
func TestMachineAccessors(t *testing.T) {
	m := NewMachine(Config{Threads: 2, ScheduleSeed: 1, Scheme: SWTr})
	if m.Config().Threads != 2 {
		t.Error("Config()")
	}
	p := &funcProg{nt: 2, worker: func(th *Thread) {
		if th.Machine() != m {
			t.Error("Machine()")
		}
		th.Compute(5)
		if th.Instr() == 0 {
			t.Error("Instr()")
		}
		if th.Machine().Scheduler() == nil {
			t.Error("Scheduler()")
		}
	}}
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
}

// TestAllocStaticOutsideSetupPanics covers the init-thread guard.
func TestAllocStaticOutsideSetupPanics(t *testing.T) {
	m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc})
	_, err := m.Run(&funcProg{nt: 1, worker: func(th *Thread) {
		th.AllocStatic("static:late", 1, mem.KindWord)
	}})
	if err == nil {
		t.Error("late static allocation accepted")
	}
}

// TestIgnoreSetAccessors covers rule introspection.
func TestIgnoreSetAccessors(t *testing.T) {
	ig := NewIgnoreSet(
		IgnoreRule{Site: "b", Offsets: []int{3, 1, 3}},
		IgnoreRule{Site: "a"},
		IgnoreRule{Site: "b", Offsets: []int{2}},
	)
	if ig.Empty() {
		t.Error("Empty")
	}
	if len(ig.Rules()) != 3 {
		t.Error("Rules")
	}
	sites := ig.Sites()
	if len(sites) != 2 || sites[0] != "a" || sites[1] != "b" {
		t.Errorf("Sites = %v", sites)
	}
	var nilSet *IgnoreSet
	if !nilSet.Empty() || nilSet.Rules() != nil || nilSet.Sites() != nil {
		t.Error("nil ignore set accessors")
	}
}

// TestCheckpointHookAbort covers hook-driven cancellation mid-run.
func TestCheckpointHookAbort(t *testing.T) {
	var bar *sched.Barrier
	p := &funcProg{nt: 2,
		setup: func(th *Thread) { bar = th.Machine().NewBarrier("b") },
		worker: func(th *Thread) {
			for i := 0; i < 5; i++ {
				th.BarrierWait(bar)
			}
		},
	}
	hookErr := errSentinel{}
	m := NewMachine(Config{Threads: 2, ScheduleSeed: 1, Scheme: HWInc,
		CheckpointHook: func(cp Checkpoint) error {
			if cp.Ordinal == 2 {
				return hookErr
			}
			return nil
		}})
	_, err := m.Run(p)
	if err == nil {
		t.Fatal("hook abort did not fail the run")
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

// nopListener is an EventListener that ignores every event.
type nopListener struct{}

func (nopListener) OnRead(th *Thread, addr uint64)     {}
func (nopListener) OnWrite(th *Thread, addr uint64)    {}
func (nopListener) OnAcquire(tid int, mu *sched.Mutex) {}
func (nopListener) OnRelease(tid int, mu *sched.Mutex) {}
func (nopListener) OnBarrier(ordinal int)              {}

// pcProbe asserts, on every data event, that the recorded site
// (Thread.PC) and the runtime.Callers unwind (Thread.CallersPC) resolve
// the same access pc — the property that lets the epoch detector pull
// the cheap recorded site while the reference detector keeps the
// baseline's capture without diverging on attribution. It keeps each
// thread's pcs next to the lines at marked for it.
type pcProbe struct {
	nopListener
	t    *testing.T
	pcs  map[int][]uintptr
	want map[int][]int
}

func (p *pcProbe) check(th *Thread) {
	fast, slow := th.PC(), th.CallersPC()
	if fast == 0 || fast != slow {
		p.t.Errorf("PC() = %#x, CallersPC() = %#x; want equal and nonzero", fast, slow)
	}
	p.pcs[th.TID()] = append(p.pcs[th.TID()], fast)
}

func (p *pcProbe) OnRead(th *Thread, addr uint64)  { p.check(th) }
func (p *pcProbe) OnWrite(th *Thread, addr uint64) { p.check(th) }

// at notes the line it is called from as th's next access site and
// returns addr: wrapping an accessor's address argument in it names the
// line of that accessor call.
func (p *pcProbe) at(th *Thread, addr uint64) uint64 {
	_, _, line, _ := runtime.Caller(1)
	p.want[th.TID()] = append(p.want[th.TID()], line)
	return addr
}

// dataAccessor is the integer-access subset of *Thread.
type dataAccessor interface {
	Load(addr uint64) uint64
	Store(addr, value uint64)
}

// asAccessor and methodValues hide th from the compiler, so calls through
// their results stay an interface call and method-value calls (through
// the autogenerated (*Thread).Store-fm and Load-fm wrappers) instead of
// being devirtualized into direct calls.
//
//go:noinline
func asAccessor(th *Thread) dataAccessor { return th }

//go:noinline
func methodValues(th *Thread) (func(addr, value uint64), func(addr uint64) uint64) {
	return th.Store, th.Load
}

// TestPCUnwindersAgree pins the two pc-capture paths against each other
// and against the exact line of each access, for every way a program can
// call an accessor: directly, through an interface, as a method
// expression and as a method value. The accesses run on the setup thread
// and on workers (LoadF, StoreF), and PC reads 0 outside an access event.
func TestPCUnwindersAgree(t *testing.T) {
	probe := &pcProbe{t: t, pcs: map[int][]uintptr{}, want: map[int][]int{}}
	noSite := func(th *Thread, after string) {
		if pc := th.PC(); pc != 0 {
			t.Errorf("thread %d: PC() = %#x after %s, want 0 outside an event", th.TID(), pc, after)
		}
	}
	var f uint64
	p := &funcProg{nt: 2,
		setup: func(th *Thread) {
			w := th.AllocStatic("static:w", 2, mem.KindWord)
			f = th.AllocStatic("static:f", 2, mem.KindFloat)
			th.Store(probe.at(th, w), 7)
			noSite(th, "Store")
			_ = th.Load(probe.at(th, w))
			noSite(th, "Load")
			a := asAccessor(th)
			a.Store(probe.at(th, w), 8)
			_ = a.Load(probe.at(th, w))
			(*Thread).Store(th, probe.at(th, w), 9)
			_ = (*Thread).Load(th, probe.at(th, w))
			st, ld := methodValues(th)
			st(probe.at(th, w), 10)
			_ = ld(probe.at(th, w))
		},
		worker: func(th *Thread) {
			base := f + uint64(th.TID())*8
			th.StoreF(probe.at(th, base), 1.5)
			noSite(th, "StoreF")
			_ = th.LoadF(probe.at(th, base))
			noSite(th, "LoadF")
		},
	}
	m := NewMachine(Config{Threads: 2, ScheduleSeed: 1, Scheme: HWInc, Events: probe})
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(probe.want[-1]) != 8 || len(probe.want[0]) != 2 || len(probe.want[1]) != 2 {
		t.Fatalf("marked sites %v, want 8 setup and 2 per worker", probe.want)
	}
	for tid, lines := range probe.want {
		pcs := probe.pcs[tid]
		if len(pcs) != len(lines) {
			t.Errorf("thread %d: %d events observed, want %d", tid, len(pcs), len(lines))
			continue
		}
		for i, pc := range pcs {
			file, line := SitePos(pc)
			if !strings.HasSuffix(file, "/thread_test.go") || line != lines[i] {
				t.Errorf("thread %d access %d: pc %#x resolves to %s:%d, want thread_test.go:%d", tid, i, pc, file, line, lines[i])
			}
			if got, want := Site(pc), fmt.Sprintf("sim/thread_test.go:%d", lines[i]); got != want {
				t.Errorf("thread %d access %d: Site = %q, want %q", tid, i, got, want)
			}
		}
	}
	if got := Site(0); got != "?" {
		t.Errorf("Site(0) = %q, want ?", got)
	}
}

// allocProbe measures, inside the first write event, what one PC call
// allocates.
type allocProbe struct {
	nopListener
	allocs float64
	pc     uintptr
}

func (p *allocProbe) OnWrite(th *Thread, addr uint64) {
	if p.allocs < 0 {
		p.allocs = testing.AllocsPerRun(100, func() { p.pc = th.PC() })
	}
}

// TestPCAllocatesNothing pins that pulling the access site inside a
// listener allocates nothing once the run has resolved that site.
func TestPCAllocatesNothing(t *testing.T) {
	probe := &allocProbe{allocs: -1}
	p := &funcProg{nt: 1,
		setup: func(th *Thread) {
			w := th.AllocStatic("static:w", 1, mem.KindWord)
			th.Store(w, 1)
		},
		worker: func(th *Thread) {},
	}
	m := NewMachine(Config{Threads: 1, ScheduleSeed: 1, Scheme: HWInc, Events: probe})
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if probe.pc == 0 {
		t.Fatal("PC() inside the write event = 0")
	}
	if probe.allocs != 0 {
		t.Errorf("PC() allocates %v times per call inside a listener, want 0", probe.allocs)
	}
}
