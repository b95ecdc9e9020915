// Package sim executes simulated parallel programs under the serializing
// random scheduler and exposes exactly the event stream InstantCheck needs:
// every store (with old and new value, as the MHM sees them on the L1 update
// path), every allocation and free, every synchronization operation, every
// output write, and a checkpoint at every barrier episode and at program
// end.
//
// The simulator stands in for the Pin-based binary instrumentation the paper
// uses (§7.1): Go has no dynamic binary instrumentation ecosystem, so the
// workloads are written against this package's Thread API instead, and the
// hashing schemes observe them through the Machine. Execution is serialized
// (one thread at a time), matching the paper's evaluation environment and
// its SW-InstantCheck_Inc prototype, which "serializes program execution and
// achieves atomicity without using locks".
//
// A Machine also maintains the instruction counters that feed the paper's
// Figure 6 cost model: native instruction count, store counts, words
// zero-filled at allocation and erased at free, and the state size swept at
// each checkpoint.
package sim

import (
	"instantcheck/internal/fpround"
	"instantcheck/internal/ihash"
	"instantcheck/internal/mem"
	"instantcheck/internal/mhm"
	"instantcheck/internal/replay"
	"instantcheck/internal/sched"
)

// Scheme selects how (and whether) the machine computes state hashes.
type Scheme int

const (
	// Native runs the program with no determinism checking at all.
	Native Scheme = iota
	// HWInc models HW-InstantCheck_Inc: per-thread MHM units hash every
	// store on the fly; checkpoints combine TH registers in software.
	HWInc
	// SWInc models SW-InstantCheck_Inc: the same incremental updates, but
	// performed by instrumentation code, which the cost model charges at
	// software hashing rates. Because execution is serialized, the
	// old-value read is atomic with the store, as in the paper's prototype.
	SWInc
	// SWIncNonAtomic models the §4.1 caveat: the instrumentation reads the
	// old value in a separate step with a preemption window before the
	// store, so write-write races can feed a stale old value into the hash
	// and cause false nondeterminism alarms.
	SWIncNonAtomic
	// SWTr models SW-InstantCheck_Tr: no per-store work; every checkpoint
	// traverses the static segment and the table of live allocations.
	SWTr
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case Native:
		return "Native"
	case HWInc:
		return "HW-InstantCheck_Inc"
	case SWInc:
		return "SW-InstantCheck_Inc"
	case SWIncNonAtomic:
		return "SW-InstantCheck_Inc(non-atomic)"
	case SWTr:
		return "SW-InstantCheck_Tr"
	default:
		return "Scheme(?)"
	}
}

// Hashing reports whether the scheme computes state hashes at checkpoints.
func (s Scheme) Hashing() bool { return s != Native }

// Incremental reports whether the scheme hashes stores on the fly.
func (s Scheme) Incremental() bool {
	return s == HWInc || s == SWInc || s == SWIncNonAtomic
}

// Instruction-cost constants for the native work a program performs. The
// absolute values are a conventional RISC-flavored accounting; Figure 6 only
// depends on ratios.
const (
	CostLoad    = 1
	CostStore   = 1
	CostCompute = 1 // per Compute unit
	CostLock    = 4
	CostUnlock  = 2
	CostBarrier = 24
	CostMalloc  = 40
	CostFree    = 24
	CostEnvCall = 18
	CostOutput  = 1 // per 8 output bytes
)

// Config describes one run of a program.
type Config struct {
	// Threads is the worker thread count (the paper uses 8).
	Threads int
	// ScheduleSeed seeds the random scheduler. Different runs of a
	// determinism-checking campaign use different schedule seeds.
	ScheduleSeed int64
	// SwitchInterval is the mean operation count between forced
	// preemptions (<= 0 selects the scheduler default).
	SwitchInterval int
	// Scheme selects the hashing scheme.
	Scheme Scheme
	// Hasher is the location hash h(addr, value); nil selects ihash.Mix64.
	Hasher ihash.Hasher
	// Rounding configures the FP round-off unit; RoundFP turns it on from
	// the start of the run (start_FP_rounding).
	Rounding fpround.Policy
	// RoundFP enables FP rounding from the start of the run.
	RoundFP bool
	// AddrLog, if non-nil, records/replays heap allocation addresses so
	// malloc behaves as fixed input across the campaign's runs (§5).
	AddrLog *replay.AddrLog
	// Env, if non-nil, records/replays nondeterministic library calls.
	Env *replay.Env
	// Ignore deletes explicitly-specified nondeterministic structures from
	// the hash at every checkpoint (§2.2, §5).
	Ignore *IgnoreSet
	// SnapshotAt lists checkpoint ordinals at which to capture a full
	// memory snapshot for the state-diff debugging tool (§2.3). Nil means
	// never.
	SnapshotAt map[int]bool
	// Decider overrides the scheduler's decision policy. Nil selects the
	// default seeded random decider; the systematic-testing explorer
	// (paper §6.2) supplies a scripted one. When set, ScheduleSeed and
	// SwitchInterval are ignored.
	Decider sched.Decider
	// CheckpointHook, if non-nil, runs at every checkpoint right after
	// its State Hash is computed, while the state is quiescent. Returning
	// a non-nil error aborts the run (the explorer's state-pruning and
	// the replay-assist early-mismatch detection use this). The hook must
	// not touch simulated memory.
	CheckpointHook func(cp Checkpoint) error
	// Events, if non-nil, receives the run's access and synchronization
	// events (the feed for the race-detector substrate of §6.1). Listener
	// calls happen while execution is serialized.
	Events EventListener
	// CaptureOutput retains the raw bytes of every output stream in
	// Result.OutputData (for tests that decode the program's output);
	// by default only the stream hashes are kept, as in the paper.
	CaptureOutput bool
}

// StoreBufferAutoWords is the capacity of the per-thread MHM store buffer
// the HWInc and SWInc schemes park coalesced (addr, old, new) entries in
// between observation points. 256 entries keep the slot table (512 slots
// at ≤50% load) inside the L1 data cache alongside the memory engine's
// working set, while leaving drains rare enough that the devirtualized
// batch kernel amortizes its loop setup. SWIncNonAtomic always hashes
// inline, preserving its deliberate §4.1 stale-read window unchanged.
const StoreBufferAutoWords = 256

// EventListener observes a run's memory accesses and synchronization, the
// event feed a dynamic race detector consumes (paper §6.1). The init
// (setup) thread reports t.TID() == -1. Checker-internal writes (the
// zeroing of freed blocks) are not reported; they are not program accesses.
//
// Access events carry the reporting *Thread rather than a captured program
// counter: the source site of the access is pulled, not pushed. A listener
// that needs it calls t.PC() — the site the accessor recorded — from inside
// the callback, and does so only on its slow path (a first access in an
// epoch, an actual race report), so the common repeat access pays nothing
// for attribution. t.PC() resolves to a file:line with SitePos, the same
// source sites the static analyzers report.
type EventListener interface {
	// OnRead reports a data load by t; t.PC() identifies the source site.
	OnRead(t *Thread, addr uint64)
	// OnWrite reports a data store by t; t.PC() identifies the source site.
	OnWrite(t *Thread, addr uint64)
	// OnAcquire reports a mutex acquisition (after the lock is held).
	OnAcquire(tid int, mu *sched.Mutex)
	// OnRelease reports a mutex release (before the lock is dropped).
	OnRelease(tid int, mu *sched.Mutex)
	// OnBarrier reports a checkpoint barrier episode (global quiescence);
	// ordinal is the checkpoint ordinal.
	OnBarrier(ordinal int)
}

// Checkpoint records one determinism-checking point: a dynamic barrier
// episode or the end of the program.
type Checkpoint struct {
	// Ordinal is the 0-based dynamic index of the checkpoint within the run.
	Ordinal int
	// Label is the barrier name, or "end" for the final checkpoint.
	Label string
	// SH is the State Hash at this point (ignore-set already applied).
	// Zero for Native runs.
	SH ihash.Digest
	// RawSH is the State Hash before ignore-set adjustment.
	RawSH ihash.Digest
	// LiveWords is the hashed-state size in words at this point.
	LiveWords int
	// Snapshot is the full state copy, if requested via Config.SnapshotAt.
	Snapshot *mem.Snapshot
}

// Counters aggregates the run's activity for the Figure 6 cost model.
type Counters struct {
	// Instr is the native instruction count (all threads plus setup).
	Instr uint64
	// PerThread is the native instruction count per worker thread.
	PerThread []uint64
	// SetupInstr is the native instruction count of the setup phase.
	SetupInstr uint64
	// Stores counts data stores (not including checker-induced zeroing).
	Stores uint64
	// FPStores counts the subset of Stores that were FP stores.
	FPStores uint64
	// Loads counts data loads.
	Loads uint64
	// AllocZeroWords is the number of words zero-filled at allocation —
	// checking-only work (native runs do not zero, §7.3).
	AllocZeroWords uint64
	// FreeEraseWords is the number of words whose hashes were erased at
	// free — checking-only work.
	FreeEraseWords uint64
	// CheckpointWords sums the hashed-state size over all checkpoints —
	// the sweep volume of SW-InstantCheck_Tr.
	CheckpointWords uint64
	// IgnoredWordChecks sums, over checkpoints, the number of words the
	// ignore-set deletion examined.
	IgnoredWordChecks uint64
	// Checkpoints is the number of determinism-checking points.
	Checkpoints uint64
	// SchedOps is the scheduler's Yield-point count for the worker phase —
	// the operation clock preemption budgets are expressed in. Exploration
	// strategies (PCT) calibrate their change-point placement against it.
	SchedOps uint64
	// OutputBytes is the total bytes written to the output stream.
	OutputBytes uint64
	// Allocs and Frees count dynamic allocation events.
	Allocs uint64
	// Frees counts dynamic free events.
	Frees uint64

	// The remaining fields are observability counters for the checkfarm's
	// metrics layer, not part of the Figure 6 cost model. They are filled
	// off the hot path: the fast-window numbers are copied from the memory
	// engine once at run end, and the traversal numbers are bumped once per
	// checkpoint sweep.

	// FastLoadMisses and FastStoreMisses count accesses that fell through
	// the memory engine's inline fast window into the slow path (store
	// misses include checker-internal zeroing on free). Fast-window hits
	// are derived as Loads+Stores minus misses; the hit path itself does
	// no counting.
	FastLoadMisses  uint64
	FastStoreMisses uint64
	// TraverseRunsHashed counts the page-bounded runs the traversal scheme
	// actually hashed across all checkpoints (zero runs that cancel via
	// Σh(a,0) are excluded).
	TraverseRunsHashed uint64
	// TraverseShardedSweeps counts checkpoint sweeps that fanned out across
	// goroutine shards; sequential sweeps are Checkpoints minus this (for
	// the traversal scheme).
	TraverseShardedSweeps uint64
	// TraverseFullSweeps and TraverseDeltaSweeps split the traversal
	// scheme's checkpoints: a run's first sweep starts from an empty
	// per-page cache, so it rehashes every page holding nonzero live
	// words and counts as full; every later sweep is a delta sweep over
	// the pages dirtied since the previous checkpoint.
	TraverseFullSweeps  uint64
	TraverseDeltaSweeps uint64
	// TraverseDirtyPages sums the dirty pages rehashed over all delta
	// sweeps; TraverseLivePages sums the per-page cache size (pages with
	// nonzero contributions) sampled at each delta sweep. Their ratio is
	// the fraction of live state a delta checkpoint actually touched.
	TraverseDirtyPages uint64
	TraverseLivePages  uint64
	// StoreBufferFlushes, StoreBufferDrainedWords, StoreBufferCoalesced
	// and StoreBufferEvictions mirror the run's aggregated store-buffer
	// mhm.Stats, copied once at run end: buffer drains executed, coalesced
	// entries hashed at drains, stores that merged into an already-pending
	// entry instead of adding hash terms on the hot path, and pending
	// entries emitted early on a broken coalescing chain. DrainedWords +
	// Evictions is the number of hash pairs the buffered scheme actually
	// computed (the quantity the Figure 6 buffered-SW-Inc model charges).
	StoreBufferFlushes      uint64
	StoreBufferDrainedWords uint64
	StoreBufferCoalesced    uint64
	StoreBufferEvictions    uint64
	// EventReads and EventWrites count the access events delivered to an
	// attached EventListener — the per-access volume of a detection run.
	// Both stay zero when Config.Events is nil, so the farm can tell
	// detection runs from plain check runs by these alone.
	EventReads  uint64
	EventWrites uint64
}

// OutputStream is one file descriptor's hashed output (§4.3).
type OutputStream struct {
	// Hash is the FNV-1a of the bytes in write order.
	Hash uint64
	// Bytes is the stream length.
	Bytes uint64
}

// Stdout is the descriptor Thread.Write targets.
const Stdout = 1

// Result is the outcome of one run.
type Result struct {
	// Checkpoints lists every determinism-checking point, in order. The
	// last entry is always the end-of-program checkpoint.
	Checkpoints []Checkpoint
	// Outputs maps each written file descriptor to its stream hash (§4.3).
	Outputs map[int]OutputStream
	// OutputData holds the raw stream bytes per descriptor when
	// Config.CaptureOutput was set.
	OutputData map[int][]byte
	// OutputHash is the stdout stream's hash (0 if nothing was written).
	OutputHash uint64
	// OutputBytes is the total output length across descriptors.
	OutputBytes uint64
	// Counters holds the cost-model counters.
	Counters Counters
	// MHMStats aggregates the MHM activity of all units (incremental
	// schemes only).
	MHMStats mhm.Stats
	// FinalLiveWords is the hashed-state size at program end.
	FinalLiveWords int
}

// FinalSH returns the State Hash at program end.
func (r *Result) FinalSH() ihash.Digest {
	if len(r.Checkpoints) == 0 {
		return ihash.Zero
	}
	return r.Checkpoints[len(r.Checkpoints)-1].SH
}

// SHVector returns the per-checkpoint State Hashes as a slice, the vector
// InstantCheck compares across runs.
func (r *Result) SHVector() []ihash.Digest {
	v := make([]ihash.Digest, len(r.Checkpoints))
	for i, cp := range r.Checkpoints {
		v[i] = cp.SH
	}
	return v
}
