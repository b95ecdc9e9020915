package ihash

import "testing"

// TestZeroSumMatchesPerWord pins ZeroSum, and BatchInsert over nonzero
// words, to per-word Inserts into the reference Accumulator, for both
// hashers (the devirtualized Mix64 loop and the interface loop).
func TestZeroSumMatchesPerWord(t *testing.T) {
	base := uint64(0x1000_0000)
	news := []uint64{9, 2, 0, 4, 7}
	for _, h := range hashers {
		zero, ins := NewAccumulator(h), NewAccumulator(h)
		for i := 0; i < 37; i++ {
			zero.Insert(base+uint64(i)*8, 0)
		}
		for i, v := range news {
			ins.Insert(base+uint64(i)*8, v)
		}
		if got := ZeroSum(h, base, 37); got != zero.Value() {
			t.Fatalf("%s: ZeroSum = %v, want %v", h.Name(), got, zero.Value())
		}
		if got := BatchInsert(h, base, news); got != ins.Value() {
			t.Fatalf("%s: BatchInsert = %v, want %v", h.Name(), got, ins.Value())
		}
		if got := ZeroSum(h, base, 0); got != Zero {
			t.Fatalf("%s: empty ZeroSum = %v, want zero", h.Name(), got)
		}
	}
}

// TestZeroSumCache checks memoization returns identical digests and that
// distinct runs get distinct entries.
func TestZeroSumCache(t *testing.T) {
	c := NewZeroSumCache(nil)
	a := c.Sum(0x10000, 16)
	if c.Len() != 1 {
		t.Fatalf("cache len = %d", c.Len())
	}
	if b := c.Sum(0x10000, 16); b != a {
		t.Fatal("memoized sum differs")
	}
	if c.Len() != 1 {
		t.Fatal("repeat probe grew the cache")
	}
	longer, shifted := c.Sum(0x10000, 17), c.Sum(0x10080, 16)
	if longer == a && shifted == a {
		t.Fatal("distinct runs collided suspiciously")
	}
	c.Sum(0x20000, 8)
	if c.Len() != 4 {
		t.Fatalf("cache len = %d after a fourth run", c.Len())
	}
	if c.Sum(0x10000, 16) != ZeroSum(Mix64{}, 0x10000, 16) {
		t.Fatal("cached sum != direct sum")
	}
}
