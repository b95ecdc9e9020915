package ihash

import "testing"

// TestZeroSumMatchesPerWord pins ZeroSum to the word-at-a-time definition.
func TestZeroSumMatchesPerWord(t *testing.T) {
	h := Mix64{}
	base := uint64(0x1000_0000)
	var want Digest
	for i := 0; i < 37; i++ {
		want = want.Combine(h.HashWord(base+uint64(i)*8, 0))
	}
	if got := ZeroSum(h, base, 37); got != want {
		t.Fatalf("ZeroSum = %v, want %v", got, want)
	}
	if got := ZeroSum(h, base, 0); got != Zero {
		t.Fatalf("empty ZeroSum = %v, want zero", got)
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
	c.Warm(0x20000, 8)
	if c.Len() != 4 {
		t.Fatalf("cache len = %d after warm", c.Len())
	}
	if c.Sum(0x10000, 16) != ZeroSum(Mix64{}, 0x10000, 16) {
		t.Fatal("cached sum != direct sum")
	}
}

// TestWriteBatch checks the run-granular update equals per-word Writes, and
// that nil olds degenerates to insertion.
func TestWriteBatch(t *testing.T) {
	base := uint64(0x3000)
	olds := []uint64{1, 2, 3, 4, 5}
	news := []uint64{9, 2, 0, 4, 7}

	ref := NewAccumulator(nil)
	ref.SetValue(12345)
	for i := range news {
		ref.Write(base+uint64(i)*8, olds[i], news[i])
	}
	got := NewAccumulator(nil)
	got.SetValue(12345)
	got.WriteBatch(base, olds, news)
	if got.Value() != ref.Value() {
		t.Fatalf("WriteBatch = %v, per-word = %v", got.Value(), ref.Value())
	}

	ref2 := NewAccumulator(nil)
	for i, v := range news {
		ref2.Insert(base+uint64(i)*8, v)
	}
	got2 := NewAccumulator(nil)
	got2.WriteBatch(base, nil, news)
	if got2.Value() != ref2.Value() {
		t.Fatalf("insert WriteBatch = %v, per-word = %v", got2.Value(), ref2.Value())
	}
}

// TestWriteBatchLengthMismatch pins the panic on mismatched run lengths.
func TestWriteBatchLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	NewAccumulator(nil).WriteBatch(0, []uint64{1}, []uint64{1, 2})
}
