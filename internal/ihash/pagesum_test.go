package ihash

import (
	"math/rand"
	"testing"
)

// TestPageSumCacheAlgebra drives randomized Replace sequences against a
// naive model (a plain map summed from scratch) and checks the incremental
// total matches the full recomputation after every operation — the group
// identity SH' = SH ⊖ old ⊕ new that delta checkpoints rely on.
func TestPageSumCacheAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := NewPageSumCache()
	model := map[uint64]Digest{}
	recompute := func() Digest {
		var d Digest
		for _, v := range model {
			d = d.Combine(v)
		}
		return d
	}
	for op := 0; op < 2000; op++ {
		page := uint64(rng.Intn(40))
		next := Digest(rng.Uint64())
		if rng.Intn(3) == 0 {
			next = Zero // the page drops out of the live state
		}
		old := c.Replace(page, next)
		if want := model[page]; old != want {
			t.Fatalf("op %d: Replace returned old %s, model %s", op, old, want)
		}
		if next == Zero {
			delete(model, page)
		} else {
			model[page] = next
		}
		if got, want := c.Total(), recompute(); got != want {
			t.Fatalf("op %d: incremental total %s, recomputed %s", op, got, want)
		}
		if c.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model holds %d pages", op, c.Len(), len(model))
		}
	}
}

// TestPageSumCacheZeroEviction: replacing a page's contribution with Zero
// must delete the entry, so the cache tracks only pages with live nonzero
// state (freed pages cost nothing).
func TestPageSumCacheZeroEviction(t *testing.T) {
	c := NewPageSumCache()
	c.Replace(3, Digest(7))
	c.Replace(9, Digest(11))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if old := c.Replace(3, Zero); old != Digest(7) {
		t.Fatalf("Replace old = %s, want 7", old)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after zero replace = %d, want 1", c.Len())
	}
	if c.Total() != Digest(11) {
		t.Fatalf("Total = %s, want 11", c.Total())
	}
}
