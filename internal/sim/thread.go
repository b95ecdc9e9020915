package sim

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"instantcheck/internal/mem"
	"instantcheck/internal/mhm"
	"instantcheck/internal/sched"
)

// Thread is the execution context handed to a Program's Setup and Worker
// functions. All simulated work — memory access, synchronization,
// allocation, I/O, library calls — goes through Thread methods so the
// machine can observe it, exactly as Pin-instrumented binaries expose these
// events to the paper's prototypes.
//
// The init thread (Setup phase) has TID() == -1 and never yields; worker
// threads yield at every operation, giving the random scheduler its
// preemption points.
type Thread struct {
	m   *Machine
	tid int
	// sch caches m.sch for worker threads; the init thread carries an
	// inert scheduler instead, so the per-operation yield is an
	// unconditional counter decrement that inlines into every instrumented
	// accessor.
	sch *sched.Scheduler
	// mm, ctr, and ev cache m.Mem, &m.counters, and m.cfg.Events: the
	// per-operation accessors touch all three, and loading them once at
	// thread construction saves a chase through t.m on every simulated
	// instruction.
	mm   *mem.Memory
	ctr  *Counters
	ev   EventListener
	unit *mhm.Unit // nil when the scheme is not incremental
	// site is the access site of the data event being reported, recorded
	// by the accessor for the listener's duration and 0 otherwise.
	site  uintptr
	instr uint64
}

// TID returns the worker thread id, or -1 for the init thread.
func (t *Thread) TID() int { return t.tid }

// Machine returns the machine this thread runs on.
func (t *Thread) Machine() *Machine { return t.m }

// Instr returns the native instructions this thread has executed so far.
func (t *Thread) Instr() uint64 { return t.instr }

func (t *Thread) charge(n uint64) { t.instr += n }

func (t *Thread) yield() { t.sch.Yield() }

// Compute charges n units of pure computation (arithmetic that touches no
// shared memory) and offers a preemption point.
func (t *Thread) Compute(n int) {
	if n > 0 {
		t.charge(uint64(n) * CostCompute)
	}
	t.yield()
}

// Load reads the integer word at addr.
//
// The four data accessors (Load, LoadF, Store, StoreF) are noinline so each
// is a physical stack frame whose return address is the access site. With
// a listener attached they record that address (fpchain) in t.site before
// reporting the event and clear it when the listener returns; Thread.PC
// hands it out. An inlined accessor would have no return address of its
// own, only an inline-table entry.
//
//go:noinline
func (t *Thread) Load(addr uint64) uint64 {
	t.charge(CostLoad)
	t.ctr.Loads++
	t.yield()
	if ev := t.ev; ev != nil {
		t.ctr.EventReads++
		t.site = fpchain()
		ev.OnRead(t, addr)
		t.site = 0
	}
	if v, ok := t.mm.LoadFast(addr); ok {
		return v
	}
	return t.mm.Load(addr)
}

// LoadF reads the float64 at addr.
//
//go:noinline
func (t *Thread) LoadF(addr uint64) float64 {
	t.charge(CostLoad)
	t.ctr.Loads++
	t.yield()
	if ev := t.ev; ev != nil {
		t.ctr.EventReads++
		t.site = fpchain()
		ev.OnRead(t, addr)
		t.site = 0
	}
	if v, ok := t.mm.LoadFast(addr); ok {
		return math.Float64frombits(v)
	}
	return math.Float64frombits(t.mm.Load(addr))
}

// PC returns the program counter of the source line that invoked the
// Thread accessor currently reporting an event: the instrumented access
// site, or 0 outside OnRead/OnWrite. Listeners pull it lazily — only on
// their slow path (first access of an epoch, or assembling a race report).
// Resolve the result to file:line with SitePos.
//
// The accessor recorded the site as its own return address, so PC costs
// one memoized lookup. That lookup rejects a site inside a Thread method:
// a method value (ld := th.Load) calls through the autogenerated
// (*Thread).Load-fm wrapper, whose caller is the real site. That case, a
// site-less call, and architectures without fpchain fall back to
// CallersPC, which returns the same pc for the same access.
func (t *Thread) PC() uintptr {
	if pc := t.site; pc != 0 && !isAccessorFrame(t.m, pc) {
		return pc
	}
	return t.CallersPC()
}

// CallersPC is the runtime.Callers-based unwind behind PC (one traceback
// with inline expansion per call).
func (t *Thread) CallersPC() uintptr {
	var pcs [8]uintptr
	n := runtime.Callers(2, pcs[:])
	return scanAccessors(t.m, pcs[:n])
}

// scanAccessors finds the outermost contiguous run of Thread-accessor
// frames (Load, Store, store, ...; none of them are inlinable) and
// returns the frame just above it — the instrumented access site — so
// the unwind works at any call depth inside the listener. Eight frames
// always cover the listener's own depth (at most a handful of detector
// frames below the accessor run) plus the access site.
func scanAccessors(m *Machine, pcs []uintptr) uintptr {
	last := -1
	for i, pc := range pcs {
		if isAccessorFrame(m, pc) {
			last = i
		} else if last >= 0 {
			break
		}
	}
	if last >= 0 && last+1 < len(pcs) {
		return pcs[last+1]
	}
	return 0
}

// isAccessorFrame reports whether the return address pc lies inside a
// Thread accessor (the "instantcheck/internal/sim.(*Thread)." methods,
// method-value wrappers included). The verdict is memoized in m, so
// symbolization runs once per distinct pc and run; the plain map needs no
// lock because a machine runs one thread at a time.
func isAccessorFrame(m *Machine, pc uintptr) bool {
	if in, ok := m.accessorPCs[pc]; ok {
		return in
	}
	// pc is a return address: the call instruction lives at pc-1 (and the
	// subtraction also keeps a tail call attributed to the caller's frame).
	const prefix = "instantcheck/internal/sim.(*Thread)."
	fn := runtime.FuncForPC(pc - 1)
	name := ""
	if fn != nil {
		name = fn.Name()
	}
	// The unwinders themselves are Thread methods but not accessors: PC
	// shows up as a frame when it falls back to CallersPC, and counting it
	// as part of the accessor run would truncate the scan.
	in := strings.HasPrefix(name, prefix) && name != prefix+"PC" && name != prefix+"CallersPC"
	if m.accessorPCs == nil {
		m.accessorPCs = make(map[uintptr]bool)
	}
	m.accessorPCs[pc] = in
	return in
}

// sitePosCache memoizes SitePos's pc→(file, line) resolution: report
// assembly and the static/dynamic cross-check resolve the same handful of
// access sites over and over, and runtime.CallersFrames both allocates and
// walks the inlining tables on every call.
var sitePosCache sync.Map // uintptr -> sitePosEntry

type sitePosEntry struct {
	file string
	line int
}

// SitePos resolves an access pc reported to an EventListener into the
// source file and line of the instrumented call, following inlining.
func SitePos(pc uintptr) (file string, line int) {
	if pc == 0 {
		return "", 0
	}
	if v, ok := sitePosCache.Load(pc); ok {
		e := v.(sitePosEntry)
		return e.file, e.line
	}
	frame, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	sitePosCache.Store(pc, sitePosEntry{frame.File, frame.Line})
	return frame.File, frame.Line
}

// Site renders an access pc as "dir/file.go:line", the path shortened to
// its last two components ("?" when pc resolves to no file). The form is
// stable across checkouts, and the static race report's site IDs reduce to
// it (analysis.RaceSite.FileLine), so dynamic and static sites match.
func Site(pc uintptr) string {
	file, line := SitePos(pc)
	if file == "" {
		return "?"
	}
	parts := strings.Split(filepath.ToSlash(file), "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return fmt.Sprintf("%s:%d", strings.Join(parts, "/"), line)
}

// Store writes an integer word at addr. The address must belong to a
// KindWord block: the compiler knows which stores are FP stores (§5), and
// the simulator enforces that the instruction kind matches the allocation's
// type annotation so the incremental and traversal schemes always round the
// same words.
//
//go:noinline
func (t *Thread) Store(addr, value uint64) {
	if t.ev != nil {
		t.site = fpchain()
	}
	t.store(addr, value, false)
}

// StoreF writes a float64 at addr; the address must belong to a KindFloat
// block. FP stores are the ones routed through the MHM round-off unit.
//
//go:noinline
func (t *Thread) StoreF(addr uint64, value float64) {
	if t.ev != nil {
		t.site = fpchain()
	}
	t.store(addr, math.Float64bits(value), true)
}

func (t *Thread) store(addr, value uint64, isFP bool) {
	t.charge(CostStore)
	t.ctr.Stores++
	t.checkKind(addr, isFP)
	if ev := t.ev; ev != nil {
		t.ctr.EventWrites++
		ev.OnWrite(t, addr)
		t.site = 0
	}
	switch t.m.cfg.Scheme {
	case SWIncNonAtomic:
		// §4.1 caveat: the instrumentation reads the old value first,
		// then the store happens after a preemption window. Under a
		// write-write race another thread's store can land in between,
		// making `stale` differ from the value the store replaces and
		// corrupting the hash.
		stale := t.mm.Peek(addr)
		t.yield()
		t.mm.Store(addr, value)
		if t.unit != nil {
			t.unit.OnStore(addr, stale, value, isFP)
		}
	default:
		t.yield()
		old, ok := t.mm.StoreFast(addr, value)
		if !ok {
			old = t.mm.Store(addr, value)
		}
		if t.unit != nil {
			t.unit.OnStore(addr, old, value, isFP)
		}
	}
}

func (t *Thread) checkKind(addr uint64, isFP bool) {
	b := t.mm.BlockAt(addr)
	if b == nil {
		return // Store will panic with a better message
	}
	if isFP != (b.Kind == mem.KindFloat) {
		panic("sim: store kind mismatch at " + b.Site +
			": FP stores must target KindFloat blocks and integer stores KindWord blocks")
	}
}

// Malloc allocates words zero-filled 8-byte words at the given allocation
// site and returns the base address. Addresses are recorded to / replayed
// from the campaign's address log so that dynamic allocation behaves as
// fixed input (§5).
func (t *Thread) Malloc(site string, words int, kind mem.Kind) uint64 {
	t.charge(CostMalloc)
	t.yield()
	b := t.mm.Alloc(site, words, kind)
	if t.m.cfg.AddrLog != nil {
		t.m.cfg.AddrLog.Record(site, b.Seq, b.Base)
	}
	// Zero-filling the allocation is checking-induced work (§7.3: the HW
	// scheme's only overhead); it needs no hash updates because a zero
	// word's delta from the zero initial state is itself zero.
	t.ctr.AllocZeroWords += uint64(words)
	return b.Base
}

// AllocStatic reserves static (never-freed) global state. Only the init
// thread may call it: static data is part of the program image.
func (t *Thread) AllocStatic(site string, words int, kind mem.Kind) uint64 {
	if t.tid >= 0 {
		panic("sim: AllocStatic outside the Setup phase")
	}
	return t.mm.AllocStatic(site, words, kind)
}

// Free releases the block based at base. InstantCheck erases the freed
// contents from the hash — each word's current value is deleted and the
// word restored to the fixed all-zero initial state — so freed memory is
// "no longer part of the program state" (§7.2, pbzip2 discussion).
func (t *Thread) Free(base uint64) {
	t.charge(CostFree)
	t.yield()
	blk := t.mm.BlockAt(base)
	if blk == nil || blk.Base != base {
		panic("sim: Free of a non-block address")
	}
	isFP := blk.Kind == mem.KindFloat
	for i := 0; i < blk.Words; i++ {
		addr := base + uint64(i)*mem.WordSize
		old := t.mm.Store(addr, 0)
		// A still-zero word needs no erase: ⊖h(a,0)⊕h(a,0) cancels. Nonzero
		// words route through OnFree — the minus_hash/plus_hash pair, sent
		// down the store-buffer batch path when one is attached, where a
		// word freed in the window it was written in coalesces to old==new
		// and is elided without hashing h(a,0) at all.
		if t.unit != nil && old != 0 {
			t.unit.OnFree(addr, old, isFP)
		}
	}
	t.ctr.FreeEraseWords += uint64(blk.Words)
	t.mm.Free(base)
}

// Lock acquires mu, blocking in the scheduler if necessary.
func (t *Thread) Lock(mu *sched.Mutex) {
	t.charge(CostLock)
	t.yield()
	mu.Lock(t.m.sch, t.tid)
	if ev := t.ev; ev != nil {
		ev.OnAcquire(t.tid, mu)
	}
}

// Unlock releases mu.
func (t *Thread) Unlock(mu *sched.Mutex) {
	t.charge(CostUnlock)
	if ev := t.ev; ev != nil {
		ev.OnRelease(t.tid, mu)
	}
	mu.Unlock(t.m.sch, t.tid)
	t.yield()
}

// BarrierWait arrives at b and blocks until all parties have arrived. The
// episode is a determinism-checking point.
func (t *Thread) BarrierWait(b *sched.Barrier) {
	t.charge(CostBarrier)
	b.Await(t.m.sch, t.tid)
}

// CondWait waits on c (its mutex must be held). The internal mutex
// release/reacquire is surfaced to the event listener: without those
// edges a happens-before detector would see the waiter's critical
// section as unordered against every other one.
func (t *Thread) CondWait(c *sched.Cond) {
	t.charge(CostLock)
	if ev := t.ev; ev != nil {
		ev.OnRelease(t.tid, c.Mutex())
	}
	c.Wait(t.m.sch, t.tid)
	if ev := t.ev; ev != nil {
		ev.OnAcquire(t.tid, c.Mutex())
	}
}

// CondSignal wakes one waiter of c.
func (t *Thread) CondSignal(c *sched.Cond) {
	t.charge(CostUnlock)
	c.Signal(t.m.sch, t.tid)
	t.yield()
}

// CondBroadcast wakes all waiters of c.
func (t *Thread) CondBroadcast(c *sched.Cond) {
	t.charge(CostUnlock)
	c.Broadcast(t.m.sch, t.tid)
	t.yield()
}

// Checkpoint records a programmer-specified determinism-checking point
// (§2.3: "the programmer may also specify additional program points where
// she expects her program to be in a deterministic state", e.g. the end of
// a loop iteration or a hand-coded barrier). The state hash is captured
// immediately; ensuring the point is actually quiescent — other threads
// are not mid-update — is the programmer's responsibility, exactly as in
// the paper. With hardware support these checks are cheap enough to place
// "at as many points as desired".
func (t *Thread) Checkpoint(label string) {
	t.charge(2)
	if err := t.m.capture(label); err != nil {
		t.m.sch.Abort(err)
	}
}

// Yield offers an explicit preemption point (spin loops in hand-coded
// synchronization must call it so other threads can make progress).
func (t *Thread) Yield() {
	t.charge(1)
	if t.tid >= 0 {
		t.m.sch.Preempt(t.tid)
	}
}

// Write appends p to the program's standard output stream, which
// InstantCheck hashes at the libc write() boundary (§4.3).
func (t *Thread) Write(p []byte) { t.WriteFd(Stdout, p) }

// WriteFd appends p to the stream of descriptor fd; each descriptor's
// stream is hashed independently, as a full per-file implementation of
// §4.3 would do.
func (t *Thread) WriteFd(fd int, p []byte) {
	t.charge(uint64(len(p)/8+1) * CostOutput)
	t.yield()
	t.m.writeOutput(fd, p)
}

// Rand returns the next value of the thread's rand() stream. The results
// are recorded on the first run of a campaign and replayed on later runs:
// nondeterministic library calls are treated as input (§5).
func (t *Thread) Rand() uint64 {
	t.charge(CostEnvCall)
	t.yield()
	if t.m.cfg.Env == nil {
		panic("sim: Rand requires Config.Env (nondeterministic library calls must be record/replayed)")
	}
	return t.m.cfg.Env.Rand(t.envTID())
}

// Gettimeofday returns the thread's replayed gettimeofday() result in
// microseconds.
func (t *Thread) Gettimeofday() int64 {
	t.charge(CostEnvCall)
	t.yield()
	if t.m.cfg.Env == nil {
		panic("sim: Gettimeofday requires Config.Env")
	}
	return t.m.cfg.Env.Gettimeofday(t.envTID())
}

func (t *Thread) envTID() int {
	if t.tid < 0 {
		return -1
	}
	return t.tid
}

// StartHashing / StopHashing expose the MHM's start_hashing/stop_hashing
// instructions (§3.3) to analysis code running in the checked thread.
func (t *Thread) StartHashing() {
	if t.unit != nil {
		t.unit.StartHashing()
	}
}

// StopHashing disables store hashing for this thread.
func (t *Thread) StopHashing() {
	if t.unit != nil {
		t.unit.StopHashing()
	}
}
