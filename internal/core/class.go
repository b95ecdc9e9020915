package core

import "instantcheck/internal/sim"

// Class is the determinism taxonomy of Table 1.
type Class int

const (
	// ClassBitDeterministic: every run produces bit-identical state at
	// every checking point.
	ClassBitDeterministic Class = iota
	// ClassFPDeterministic: deterministic once FP values are rounded
	// (differences come only from FP-precision limitations).
	ClassFPDeterministic
	// ClassStructDeterministic: deterministic once small, explicitly
	// identified nondeterministic structures are deleted from the hash
	// (with FP rounding also applied, as the paper does for cholesky).
	ClassStructDeterministic
	// ClassNondeterministic: nondeterministic even after rounding and
	// (if provided) structure isolation.
	ClassNondeterministic
)

// String names the class like Table 1's row groups.
func (c Class) String() string {
	switch c {
	case ClassBitDeterministic:
		return "bit-by-bit"
	case ClassFPDeterministic:
		return "FP-prec"
	case ClassStructDeterministic:
		return "small-struct"
	case ClassNondeterministic:
		return "NDet"
	default:
		return "Class(?)"
	}
}

// MarshalText encodes the class as its String form, so JSON carries the
// Table 1 row-group name.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Characterization gathers the campaigns behind one Table 1 row.
type Characterization struct {
	// Program names the workload.
	Program string
	// Class is the resulting determinism class.
	Class Class
	// BitByBit is the campaign with no rounding and no isolation
	// (Table 1 columns 5–6).
	BitByBit *Report
	// AfterRounding is the campaign with FP rounding (columns 7–8).
	AfterRounding *Report
	// AfterIsolation is the campaign with rounding plus the ignore set
	// (column 9); nil when no ignore set was supplied.
	AfterIsolation *Report
}

// Best returns the report for the app's final configuration: the one whose
// checking-point counts Table 1 columns 10–12 report (isolation if it was
// needed and provided, else rounding if needed, else bit-by-bit).
func (ch *Characterization) Best() *Report {
	switch ch.Class {
	case ClassBitDeterministic:
		return ch.BitByBit
	case ClassFPDeterministic:
		return ch.AfterRounding
	case ClassStructDeterministic:
		return ch.AfterIsolation
	default:
		if ch.AfterIsolation != nil {
			return ch.AfterIsolation
		}
		return ch.AfterRounding
	}
}

// Characterize classifies a program into the Table 1 taxonomy by running up
// to three campaigns: bit-by-bit, with FP rounding, and (when ignore is
// non-nil) with rounding plus structure isolation. The ignore set is the
// paper's explicit programmer input; passing nil means no structures are
// isolated.
func (c Campaign) Characterize(build Builder, ignore *sim.IgnoreSet) (*Characterization, error) {
	c, err := c.withDefaults()
	if err != nil {
		return nil, err
	}

	bitC := c
	bitC.RoundFP = false
	bitC.Ignore = nil
	bit, err := bitC.Check(build)
	if err != nil {
		return nil, err
	}

	roundC := c
	roundC.RoundFP = true
	roundC.Ignore = nil
	rounded, err := roundC.Check(build)
	if err != nil {
		return nil, err
	}

	ch := &Characterization{Program: bit.Program, BitByBit: bit, AfterRounding: rounded}

	if ignore != nil && !ignore.Empty() {
		isoC := c
		isoC.RoundFP = true
		isoC.Ignore = ignore
		iso, err := isoC.Check(build)
		if err != nil {
			return nil, err
		}
		ch.AfterIsolation = iso
	}

	switch {
	case bit.Deterministic():
		ch.Class = ClassBitDeterministic
	case rounded.Deterministic():
		ch.Class = ClassFPDeterministic
	case ch.AfterIsolation != nil && ch.AfterIsolation.Deterministic():
		ch.Class = ClassStructDeterministic
	default:
		ch.Class = ClassNondeterministic
	}
	return ch, nil
}
