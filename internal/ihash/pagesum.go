package ihash

// This file holds the per-page contribution cache behind dirty-page delta
// hashing. The traversal scheme's state hash is a mod-2⁶⁴ sum over live
// words,
//
//	SH = Σ_a (h(a, v_a) ⊖ h(a, 0))
//
// and because ⊕ is commutative and associative the sum can be bracketed by
// 4 KiB page:
//
//	SH = Σ_p C(p),   C(p) = Σ_{a ∈ p} (h(a, v_a) ⊖ h(a, 0))
//
// A page whose live words did not change between two checkpoints keeps its
// C(p), so a checkpoint only needs to rehash the pages the program dirtied
// and patch the running total:
//
//	SH' = SH ⊖ C_old(p) ⊕ C_new(p)   for each dirty page p.
//
// Pages that hold no live words — or only zero-valued ones, including
// never-materialized (zero-fill-elided) backing — have C(p) = 0, because
// each of their terms is h(a,0) ⊖ h(a,0); the cache stores no entry for
// them, mirroring how the traversal sweep skips zero runs via the memoized
// ZeroSumCache.

// PageSumCache memoizes per-page state-hash contributions keyed by page
// number and maintains their running total — the raw (pre-ignore-set) State
// Hash. Zero contributions are not stored: an absent page reads as
// Digest(0), so freed or all-zero pages cost no map entry. Not safe for
// concurrent use.
type PageSumCache struct {
	sums  map[uint64]Digest
	total Digest
}

// NewPageSumCache returns an empty cache: no pages, total Zero.
func NewPageSumCache() *PageSumCache {
	return &PageSumCache{sums: make(map[uint64]Digest)}
}

// Replace swaps page's contribution for next and patches the running total:
// total = total ⊖ old ⊕ next. It returns the contribution replaced. A zero
// next deletes the entry, keeping the cache's footprint proportional to
// pages with live nonzero state.
func (c *PageSumCache) Replace(page uint64, next Digest) (old Digest) {
	old = c.sums[page]
	c.total = c.total.Subtract(old).Combine(next)
	if next == Zero {
		delete(c.sums, page)
	} else {
		c.sums[page] = next
	}
	return old
}

// Total returns Σ C(p) over all cached pages — the raw State Hash.
func (c *PageSumCache) Total() Digest { return c.total }

// Len returns the number of pages with a nonzero cached contribution.
func (c *PageSumCache) Len() int { return len(c.sums) }
