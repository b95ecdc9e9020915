package instantcheck

import (
	"instantcheck/internal/core"
	"instantcheck/internal/fpround"
	"instantcheck/internal/ihash"
	"instantcheck/internal/mem"
	"instantcheck/internal/replay"
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
	"instantcheck/internal/statediff"
)

// Re-exported checking API. These aliases are the library's public surface;
// the implementation lives in the internal packages.
type (
	// Campaign configures one determinism-checking campaign (N runs of the
	// same program and input under different schedules).
	Campaign = core.Campaign
	// Report is a campaign's outcome: per-checkpoint distributions,
	// det/ndet point counts, first nondeterministic run.
	Report = core.Report
	// CheckpointStat summarizes one checkpoint across runs.
	CheckpointStat = core.CheckpointStat
	// DistGroup is one bar group of the paper's Figures 5/8.
	DistGroup = core.DistGroup
	// Characterization is a Table 1 row's worth of campaigns.
	Characterization = core.Characterization
	// Class is the determinism taxonomy of Table 1.
	Class = core.Class
	// Builder constructs a fresh Program for each run.
	Builder = core.Builder
	// Overhead holds Figure 6's normalized instruction counts.
	Overhead = core.Overhead
	// CostModel holds the §7.3 overhead-model constants.
	CostModel = core.CostModel
	// DiffCapture holds two runs' full states at the first divergence.
	DiffCapture = core.DiffCapture
)

// Determinism classes (Table 1 row groups).
const (
	ClassBitDeterministic    = core.ClassBitDeterministic
	ClassFPDeterministic     = core.ClassFPDeterministic
	ClassStructDeterministic = core.ClassStructDeterministic
	ClassNondeterministic    = core.ClassNondeterministic
)

// Re-exported program-authoring API.
type (
	// Program is a simulated parallel program (Setup + per-thread Worker).
	Program = sim.Program
	// Thread is the execution context handed to program code.
	Thread = sim.Thread
	// Machine executes one run of a Program.
	Machine = sim.Machine
	// MachineConfig configures a single run.
	MachineConfig = sim.Config
	// RunResult is the outcome of one run.
	RunResult = sim.Result
	// Checkpoint is one determinism-checking point of a run.
	Checkpoint = sim.Checkpoint
	// Counters are the cost-model activity counters of a run.
	Counters = sim.Counters
	// Scheme selects a hashing scheme.
	Scheme = sim.Scheme
	// IgnoreSet deletes chosen structures from every state hash.
	IgnoreSet = sim.IgnoreSet
	// IgnoreRule selects the words of one allocation site.
	IgnoreRule = sim.IgnoreRule
	// Kind is a word's element kind (integer word or float64).
	Kind = mem.Kind
	// Snapshot is a full copy of the hashed state.
	Snapshot = mem.Snapshot
	// Digest is a 64-bit incremental state hash (TH or SH).
	Digest = ihash.Digest
	// Hasher is the location hash h(addr, value).
	Hasher = ihash.Hasher
	// RoundPolicy configures the FP round-off unit.
	RoundPolicy = fpround.Policy
	// Mutex is a scheduler-aware lock for simulated programs.
	Mutex = sched.Mutex
	// Barrier is a pthread-style (checkpointing) barrier.
	Barrier = sched.Barrier
	// Cond is a scheduler-aware condition variable.
	Cond = sched.Cond
	// Env records and replays nondeterministic library calls (§5).
	Env = replay.Env
	// AddrLog records and replays malloc addresses (§5).
	AddrLog = replay.AddrLog
)

// NewEnv returns a record/replay environment whose recording run draws
// from inputSeed — the fixed program input.
func NewEnv(inputSeed int64) *Env { return replay.NewEnv(inputSeed) }

// NewAddrLog returns an empty malloc address log.
func NewAddrLog() *AddrLog { return replay.NewAddrLog() }

// Hashing schemes (paper §3, §4).
const (
	// Native runs without any determinism checking.
	Native = sim.Native
	// HWInc is HW-InstantCheck_Inc: MHM hardware hashes stores on the fly.
	HWInc = sim.HWInc
	// SWInc is SW-InstantCheck_Inc: the same updates in software.
	SWInc = sim.SWInc
	// SWIncNonAtomic exhibits the §4.1 atomicity caveat.
	SWIncNonAtomic = sim.SWIncNonAtomic
	// SWTr is SW-InstantCheck_Tr: traversal hashing at checkpoints.
	SWTr = sim.SWTr
)

// Word kinds.
const (
	// KindWord is an integer/pointer 64-bit word.
	KindWord = mem.KindWord
	// KindFloat is an IEEE-754 float64.
	KindFloat = mem.KindFloat
)

// NewIgnoreSet builds an ignore set from rules (paper §2.2: deleting
// explicitly-specified nondeterministic structures from the hash).
func NewIgnoreSet(rules ...IgnoreRule) *IgnoreSet { return sim.NewIgnoreSet(rules...) }

// NewMix64Hasher returns the default location hash h(addr, value): a
// SplitMix64-style finalizer pair (the role the paper assigns to the MHM
// hash unit).
func NewMix64Hasher() Hasher { return ihash.Mix64{} }

// NewCRC64Hasher returns the CRC-based location hash — the paper's running
// example of a conventional h — for cross-validation.
func NewCRC64Hasher() Hasher { return ihash.CRC64{} }

// NewMachine prepares a machine for a single run.
func NewMachine(cfg MachineConfig) *Machine { return sim.NewMachine(cfg) }

// RoundZeroMantissa returns the policy that zeroes the M least-significant
// mantissa bits (discards small relative FP differences, §3.1).
func RoundZeroMantissa(m int) RoundPolicy { return fpround.NewZeroMantissa(m) }

// RoundFloorDecimal returns the policy that floors to N decimal digits
// (discards small absolute FP differences; N=3 is the paper's default).
func RoundFloorDecimal(n int) RoundPolicy { return fpround.NewFloorDecimal(n) }

// DefaultCostModel mirrors the paper's §7.3 constants (5 instructions per
// hashed byte, hardware hashing free, zero-fill charged to checking).
var DefaultCostModel = core.DefaultCostModel

// GeoMean aggregates per-app overheads like Figure 6's GEOM bar.
func GeoMean(rows []Overhead) Overhead { return core.GeoMean(rows) }

// Re-exported state-diff tool (§2.3).
type (
	// Difference is one differing word, attributed to its allocation site.
	Difference = statediff.Difference
	// SiteSummary aggregates differences per allocation site.
	SiteSummary = statediff.SiteSummary
)

// DiffStates compares two snapshots and returns the differing words in
// address order, each mapped back to its allocation site and offset.
// Float words compare under round, the policy the State Hash used
// (DiffCapture.Round; the zero RoundPolicy compares raw bits), so only
// words that moved the hash are listed.
func DiffStates(a, b *Snapshot, round RoundPolicy) []Difference {
	return statediff.Diff(a, b, round)
}

// SummarizeDiff groups differences by allocation site, largest first.
func SummarizeDiff(diffs []Difference) []SiteSummary { return statediff.Summarize(diffs) }

// RenderDiff renders the state-diff tool's report (up to maxLines per-site
// summaries, largest first, then up to maxLines individual differences).
func RenderDiff(diffs []Difference, maxLines int) string {
	return statediff.Render(diffs, maxLines)
}
