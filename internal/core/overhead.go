package core

import (
	"math"

	"instantcheck/internal/sim"
)

// CostModel holds the constants of the paper's §7.3 instruction-count
// overhead model. The paper takes software hashing to cost 5 instructions
// per byte (citing Jenkins' hash survey), charges the checking schemes for
// zeroing allocated memory ("HW-InstantCheck_Inc's overhead is due to
// zeroing-out memory locations to prevent hash corruption"), and otherwise
// computes *ideal lower bounds* for the software schemes: per-store hashing
// work for SW-Inc, state-sweep hashing work for SW-Tr, ignoring allocation-
// table maintenance and cache effects.
type CostModel struct {
	// SWHashInstrPerByte is the software hashing cost (paper: 5).
	SWHashInstrPerByte float64
	// BytesPerTerm is the input size of one h(addr, value) application:
	// an 8-byte address plus an 8-byte value.
	BytesPerTerm float64
	// HWIgnoreInstrPerWord is the per-word cost of deleting an ignored
	// word from the hash with hardware support: one load plus the
	// minus_hash and plus_hash instructions.
	HWIgnoreInstrPerWord float64
	// ZeroInstrPerWord is the cost of zero-filling one word at allocation
	// or erasing it at free (one store).
	ZeroInstrPerWord float64
	// BufferAppendInstr is the per-store cost of parking an update in the
	// per-thread store buffer instead of hashing it inline: one multiply-
	// shift probe, a key compare and a three-word slot write.
	BufferAppendInstr float64
}

// DefaultCostModel mirrors the paper's constants.
var DefaultCostModel = CostModel{
	SWHashInstrPerByte:   5,
	BytesPerTerm:         16,
	HWIgnoreInstrPerWord: 3,
	ZeroInstrPerWord:     1,
	BufferAppendInstr:    8,
}

// Overhead reports instruction counts for the four configurations of
// Figure 6, normalized to Native.
type Overhead struct {
	// Program names the workload.
	Program string `json:"app"`
	// NativeInstr is the native instruction count (the denominator).
	NativeInstr uint64 `json:"native_instr"`
	// HWInc, SWIncIdeal and SWTrIdeal are execution costs normalized to
	// Native (1.0 = no overhead). The paper reports HW ≈ 1.003 average,
	// SW-Inc-Ideal ≈ 3×, SW-Tr-Ideal ≈ 5× geometric mean.
	HWInc float64 `json:"hw_inc"`
	// SWIncIdeal is the ideal lower bound for SW-InstantCheck_Inc.
	SWIncIdeal float64 `json:"sw_inc_ideal"`
	// SWIncBuffered is SW-InstantCheck_Inc with the per-thread store
	// buffer: every store pays the cheap buffer append, but the two hash
	// applications are only charged for the pairs that survived
	// coalescing and elision to reach the drain kernel (measured by the
	// run's store-buffer counters). Equal to SWIncIdeal when the run was
	// not buffered.
	SWIncBuffered float64 `json:"sw_inc_buffered"`
	// SWTrIdeal is the ideal lower bound for SW-InstantCheck_Tr.
	SWTrIdeal float64 `json:"sw_tr_ideal"`
}

// Overheads evaluates the cost model on one run's counters. Any run's
// counters work — the checking schemes do not change what the program
// itself executes — so a single instrumented run yields all four bars,
// exactly as the paper's Pin model does.
func (cm CostModel) Overheads(program string, c sim.Counters) Overhead {
	native := float64(c.Instr)
	if native == 0 {
		native = 1
	}
	zero := float64(c.AllocZeroWords+c.FreeEraseWords) * cm.ZeroInstrPerWord

	// HW: hashing is free; the checking cost is zero-fill/erase plus the
	// explicit per-checkpoint deletion of ignored words.
	hw := native + zero + float64(c.IgnoredWordChecks)*cm.HWIgnoreInstrPerWord

	// SW-Inc ideal: for every store, hash the (addr, old) and (addr, new)
	// terms in software, plus one load for the old value. Free-erasure and
	// ignore-deletion pay the same two hash applications per word.
	perTerm := cm.SWHashInstrPerByte * cm.BytesPerTerm
	perStore := 2*perTerm + 1
	swInc := native + zero +
		float64(c.Stores)*perStore +
		float64(c.FreeEraseWords)*perStore +
		float64(c.IgnoredWordChecks)*perStore

	// SW-Inc buffered: stores and free erasures pay the buffer append;
	// only the pairs that reached the hash kernel — drained words plus
	// conflict evictions, measured by the run itself — pay the two hash
	// applications. Ignore deletion bypasses the buffer (minus_hash/
	// plus_hash with an explicit load) and costs what the ideal scheme
	// charges. An unbuffered run has no drain counters; the buffered
	// bound then degenerates to the ideal one.
	swIncBuf := swInc
	if c.StoreBufferFlushes > 0 {
		pairs := float64(c.StoreBufferDrainedWords + c.StoreBufferEvictions)
		swIncBuf = native + zero +
			float64(c.Stores+c.FreeEraseWords)*cm.BufferAppendInstr +
			pairs*2*perTerm +
			float64(c.IgnoredWordChecks)*perStore
	}

	// SW-Tr ideal: sweep the whole hashed state at every checkpoint,
	// hashing every live word; table maintenance and cache misses are
	// ignored (ideal). Ignored words simply aren't swept.
	sweepWords := float64(c.CheckpointWords) - float64(c.IgnoredWordChecks)
	if sweepWords < 0 {
		sweepWords = 0
	}
	swTr := native + zero + sweepWords*perTerm

	return Overhead{
		Program:       program,
		NativeInstr:   c.Instr,
		HWInc:         hw / native,
		SWIncIdeal:    swInc / native,
		SWIncBuffered: swIncBuf / native,
		SWTrIdeal:     swTr / native,
	}
}

// GeoMean aggregates per-app overheads the way Figure 6's GEOM bar does.
func GeoMean(rows []Overhead) Overhead {
	if len(rows) == 0 {
		return Overhead{Program: "GEOM"}
	}
	var lhw, lsi, lsb, lst float64
	for _, r := range rows {
		lhw += math.Log(r.HWInc)
		lsi += math.Log(r.SWIncIdeal)
		b := r.SWIncBuffered
		if b == 0 { // row built without the buffered column
			b = r.SWIncIdeal
		}
		lsb += math.Log(b)
		lst += math.Log(r.SWTrIdeal)
	}
	n := float64(len(rows))
	return Overhead{
		Program:       "GEOM",
		HWInc:         math.Exp(lhw / n),
		SWIncIdeal:    math.Exp(lsi / n),
		SWIncBuffered: math.Exp(lsb / n),
		SWTrIdeal:     math.Exp(lst / n),
	}
}

// MeasureOverhead runs the program once under HW-InstantCheck_Inc (to
// exercise every counter, including ignore-deletion work) and evaluates the
// cost model.
func (c Campaign) MeasureOverhead(build Builder) (Overhead, error) {
	c, err := c.withDefaults()
	if err != nil {
		return Overhead{}, err
	}
	rep, err := Campaign{
		Runs:             1,
		Threads:          c.Threads,
		BaseScheduleSeed: c.BaseScheduleSeed,
		InputSeed:        c.InputSeed,
		SwitchInterval:   c.SwitchInterval,
		Scheme:           sim.HWInc,
		Hasher:           c.Hasher,
		RoundFP:          c.RoundFP,
		Rounding:         c.Rounding,
		Ignore:           c.Ignore,
	}.Check(build)
	if err != nil {
		return Overhead{}, err
	}
	return DefaultCostModel.Overheads(rep.Program, rep.Runs[0].Counters), nil
}
