package ihash

import "testing"

// BenchmarkHashWord measures the location hash — the operation the MHM
// hardware performs per store (twice: old and new value).
func BenchmarkHashWord(b *testing.B) {
	for _, h := range hashers {
		h := h
		b.Run(h.Name(), func(b *testing.B) {
			var sink Digest
			for i := 0; i < b.N; i++ {
				sink = sink.Combine(h.HashWord(uint64(i)*8, uint64(i)*0x9e37))
			}
			benchSink = sink
		})
	}
}

// BenchmarkAccumulatorWrite measures the full incremental store update
// (⊖old ⊕new) — the per-store cost of SW-InstantCheck_Inc in this runtime.
func BenchmarkAccumulatorWrite(b *testing.B) {
	a := NewAccumulator(nil)
	for i := 0; i < b.N; i++ {
		a.Write(uint64(i&1023)*8, uint64(i), uint64(i+1))
	}
	benchSink = a.Value()
}

// BenchmarkZeroSumCache compares computing Σ h(a,0) for a run from scratch
// against the memoized probe the traversal scheme performs per checkpoint.
// The cache turns a per-word hash loop into one map lookup, which is what
// makes subtracting the zero-state digest per run (instead of hashing zero
// per word) profitable.
func BenchmarkZeroSumCache(b *testing.B) {
	const words = 512 // one page-bounded run
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		var sink Digest
		for i := 0; i < b.N; i++ {
			sink = sink.Combine(ZeroSum(Mix64{}, 0x10000, words))
		}
		benchSink = sink
	})
	b.Run("cached", func(b *testing.B) {
		c := NewZeroSumCache(nil)
		c.Sum(0x10000, words)
		b.ReportAllocs()
		b.ResetTimer()
		var sink Digest
		for i := 0; i < b.N; i++ {
			sink = sink.Combine(c.Sum(0x10000, words))
		}
		benchSink = sink
	})
}

var benchSink Digest
