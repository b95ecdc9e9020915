package sim

// NewFuzzProg exports the randomized fuzz workload (stores, FP stores,
// malloc/free churn, locked read-modify-writes, barriers) to the external
// oracle tests.
func NewFuzzProg(nt int, seed uint64, steps int) Program { return newFuzz(nt, seed, steps) }

// NewBufStreamProg exports the store-buffer torture workload (hashing
// gates and FP-rounding flips mid-run) to the external oracle tests.
func NewBufStreamProg(nt int, seed uint64, steps int) Program {
	return &bufStreamProg{nt: nt, progSeed: seed, steps: steps}
}
