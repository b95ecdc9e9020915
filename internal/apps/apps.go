// Package apps provides the 17 workloads of the paper's evaluation (§7.1):
// sphinx3, pbzip2, and applications from the PARSEC and SPLASH-2 suites,
// re-implemented as kernels on the instantcheck simulator.
//
// The original binaries cannot be instrumented from Go, so each kernel is a
// from-scratch implementation of the application's parallel core, engineered
// to reproduce the determinism class and the specific nondeterminism sources
// the paper reports for that application (Table 1): disjoint-write phase
// parallelism for the bit-by-bit deterministic group, racy-order FP
// reductions for the FP-precision group, free lists / racy allocators /
// dangling pointers / scratch structures for the small-structure group, and
// racy tree construction, simulated annealing, and task stealing for the
// nondeterministic group. The three seeded bugs of Figure 7 (a semantic bug
// in waterNS, an atomicity violation in waterSP, an order violation in
// radix) are available through Options.Bug, and streamcluster carries the
// real order-violation bug the paper found, switchable off with
// Options.FixBug.
package apps

import (
	"fmt"
	"sort"

	"instantcheck/internal/core"
	"instantcheck/internal/mem"
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// BugKind selects a seeded bug (Figure 7). Bugs are seeded only in thread 3
// to simulate rarely occurring bugs, and never crash the program — they
// only create incorrect (and nondeterministic) results.
type BugKind int

const (
	// BugNone disables bug seeding.
	BugNone BugKind = iota
	// BugSemantic is Figure 7(a): waterNS's thread 3 consumes the shared
	// energy reduction as soon as every thread has announced its
	// contribution — but the announce flags go up a few operations before
	// the adds they advertise, so a badly-timed preemption makes the
	// consumed value incomplete.
	BugSemantic
	// BugAtomicity is Figure 7(b): waterSP's thread 3 updates the global
	// energy with an unlocked read-modify-write.
	BugAtomicity
	// BugOrder is Figure 7(c): radix's thread 0 raises, exactly once, the
	// rank-ready flag before the rank bases it orders are written, so a
	// thread preempted into the rank phase scatters keys to stale
	// positions.
	BugOrder
)

// String names the bug kind as Table 2 does.
func (b BugKind) String() string {
	switch b {
	case BugNone:
		return "none"
	case BugSemantic:
		return "semantic"
	case BugAtomicity:
		return "atomicity violation"
	case BugOrder:
		return "order violation"
	default:
		return "BugKind(?)"
	}
}

// Options configures a workload build.
type Options struct {
	// Threads is the worker count; 0 selects the paper's 8.
	Threads int
	// Small selects a reduced input for fast unit tests. Checkpoint
	// counts then differ from the paper; determinism classes do not.
	Small bool
	// Bug seeds one of the Figure 7 bugs (only meaningful for the app
	// that hosts that bug kind).
	Bug BugKind
	// RawCustomAlloc makes cholesky use its racy custom allocator instead
	// of routing through malloc (the paper's fix for allocator
	// nondeterminism, §7.2).
	RawCustomAlloc bool
	// FixBug applies the PARSEC author's fix for the real streamcluster
	// order-violation bug.
	FixBug bool
}

func (o Options) threads() int {
	if o.Threads <= 0 {
		return 8
	}
	return o.Threads
}

// App is one registry entry.
type App struct {
	// Name is the workload name as in Table 1.
	Name string
	// Source is the suite the original came from.
	Source string
	// UsesFP reports whether the workload performs FP operations
	// (Table 1 column 4).
	UsesFP bool
	// ExpectedClass is the determinism class Table 1 reports.
	ExpectedClass core.Class
	// HostsBug is the Figure 7 bug this app can seed (BugNone otherwise).
	HostsBug BugKind
	// Ignore returns the app's small-structure ignore set, or nil.
	Ignore func() *sim.IgnoreSet
	// Build constructs a fresh program instance for one run.
	Build func(Options) sim.Program
}

var registry []*App

// table1Order is the row order of the paper's Table 1.
var table1Order = []string{
	"blackscholes", "fft", "lu", "radix", "streamcluster", "swaptions", "volrend",
	"fluidanimate", "ocean", "waterNS", "waterSP",
	"cholesky", "pbzip2", "sphinx3",
	"barnes", "canneal", "radiosity",
}

func register(a *App) { registry = append(registry, a) }

// Registry returns all workloads in Table 1 order.
func Registry() []*App {
	rank := make(map[string]int, len(table1Order))
	for i, n := range table1Order {
		rank[n] = i
	}
	out := make([]*App, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return rank[out[i].Name] < rank[out[j].Name] })
	return out
}

// ByName returns the named workload, or nil.
func ByName(name string) *App {
	for _, a := range registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Names returns all workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, a := range registry {
		out = append(out, a.Name)
	}
	sort.Strings(out)
	return out
}

// Builder adapts an app + options to the checker's Builder type.
func (a *App) Builder(o Options) core.Builder {
	return func() sim.Program { return a.Build(o) }
}

// IgnoreSet returns the app's ignore set or nil.
func (a *App) IgnoreSet() *sim.IgnoreSet {
	if a.Ignore == nil {
		return nil
	}
	return a.Ignore()
}

// ---- shared kernel helpers ----

// idx returns the address of element i of the array based at base.
func idx(base uint64, i int) uint64 { return base + uint64(i)*mem.WordSize }

// span returns the half-open range [lo, hi) of a 1-D block partition of n
// items across nt threads for thread tid.
func span(n, nt, tid int) (lo, hi int) {
	per := n / nt
	rem := n % nt
	lo = tid*per + min(tid, rem)
	hi = lo + per
	if tid < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// xorshift is a tiny thread-local PRNG for workloads whose randomness is
// deliberately thread-local (swaptions' Monte-Carlo paths): given the same
// seed, each thread generates its sequence independently of scheduling, so
// the workload stays deterministic (paper §5, §7.2).
type xorshift uint64

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return xorshift(seed)
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// unitFloat maps a PRNG draw to (0, 1).
func (x *xorshift) unitFloat() float64 {
	return float64(x.next()>>11+1) / float64(1<<53+1)
}

// barrier wraps a checkpointing pthread-style barrier for kernel code.
type barrier struct{ b *sched.Barrier }

// newBarrier creates a full-party checkpointing barrier on t's machine.
func newBarrier(t *sim.Thread, name string) barrier {
	return barrier{t.Machine().NewBarrier(name)}
}

func (b barrier) await(t *sim.Thread) { t.BarrierWait(b.b) }

// spinWaitFlag implements a hand-coded flag wait: spin until the word at
// addr is non-zero. Hand-coded synchronization is not a checkpoint (the
// paper checks only at pthread barriers and run end).
func spinWaitFlag(t *sim.Thread, addr uint64) {
	//icvet:ignore race hand-coded flag synchronization: the spin read is ordered by the writer raising the flag
	for t.Load(addr) == 0 {
		t.Yield()
	}
}

func assertf(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf(format, args...))
	}
}

// MarshalText encodes the bug kind as its String form, so JSON carries the
// Table 2 name.
func (b BugKind) MarshalText() ([]byte, error) { return []byte(b.String()), nil }
