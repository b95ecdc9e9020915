package ihash

// The naive reference model of the paper's algebra: one Digest updated
// word by word. The tests drive it to check the group laws and the Figure 2
// example; production code folds runs with BatchInsert and ZeroSum, and the
// MHM keeps its own per-thread register (internal/mhm).

// Accumulator maintains a Digest incrementally. It is the software analogue
// of the MHM's TH register: Write applies the ⊖old ⊕new update for one
// store, Insert/Erase add or remove a single (addr, value) pair, and Value
// reads the current digest. An Accumulator is not safe for concurrent use;
// in InstantCheck each thread owns one, matching the per-core TH register.
type Accumulator struct {
	h Hasher
	d Digest
}

// NewAccumulator returns an Accumulator using h, starting from the empty
// state. A nil h selects Mix64.
func NewAccumulator(h Hasher) *Accumulator {
	if h == nil {
		h = Mix64{}
	}
	return &Accumulator{h: h}
}

// Write records that the word at addr changed from old to new:
// d = d ⊖ h(addr, old) ⊕ h(addr, new).
func (a *Accumulator) Write(addr, old, new uint64) {
	a.d = a.d.Subtract(a.h.HashWord(addr, old)).Combine(a.h.HashWord(addr, new))
}

// Insert adds the pair (addr, value) to the underlying multiset:
// d = d ⊕ h(addr, value). Used when a word enters the tracked state.
func (a *Accumulator) Insert(addr, value uint64) {
	a.d = a.d.Combine(a.h.HashWord(addr, value))
}

// Erase removes the pair (addr, value) from the underlying multiset:
// d = d ⊖ h(addr, value). Used when a word leaves the tracked state
// (free) or is deleted from the hash via the paper's minus_hash operation.
func (a *Accumulator) Erase(addr, value uint64) {
	a.d = a.d.Subtract(a.h.HashWord(addr, value))
}

// Value returns the current digest.
func (a *Accumulator) Value() Digest { return a.d }

// SetValue overwrites the digest, implementing the restore_hash instruction.
func (a *Accumulator) SetValue(d Digest) { a.d = d }

// Reset returns the accumulator to the empty state.
func (a *Accumulator) Reset() { a.d = Zero }

// Hasher returns the location hash in use.
func (a *Accumulator) Hasher() Hasher { return a.h }
