package ihash

// This file holds the traversal-hashing fast-path helpers. The traversal
// scheme (SW-InstantCheck_Tr) computes, for every live word,
//
//	SH ⊕= h(a, v) ⊖ h(a, 0)
//
// subtracting the hash of the zero value so that allocation itself (which
// zero-fills) does not perturb the state hash. The h(a, 0) terms depend only
// on the address range, never on program data, so a traversal can subtract
// one precomputed Σ h(a, 0) per run instead of hashing zero per word — and a
// run that is still all-zero contributes exactly nothing and can be skipped
// outright, since its Σ h(a, v) equals its Σ h(a, 0).

// ZeroSum returns Σ h(base+i*8, 0) for i in [0, words): the aggregate
// zero-state digest of a contiguous word run.
func ZeroSum(h Hasher, base uint64, words int) Digest {
	var d Digest
	if _, ok := h.(Mix64); ok {
		// Devirtualized loop: with the default hasher the word hash inlines
		// to a handful of multiplies, instead of an interface call per word.
		var mh Mix64
		for i := 0; i < words; i++ {
			d = d.Combine(mh.HashWord(base+uint64(i)*8, 0))
		}
		return d
	}
	for i := 0; i < words; i++ {
		d = d.Combine(h.HashWord(base+uint64(i)*8, 0))
	}
	return d
}

// BatchInsert returns Σ h(base+i*8, news[i]): the digest contribution of a
// contiguous run of words entering the tracked state. Like ZeroSum it
// devirtualizes the per-word hash for the default hasher.
func BatchInsert(h Hasher, base uint64, news []uint64) Digest {
	var d Digest
	if _, ok := h.(Mix64); ok {
		var mh Mix64
		for i, v := range news {
			d = d.Combine(mh.HashWord(base+uint64(i)*8, v))
		}
		return d
	}
	for i, v := range news {
		d = d.Combine(h.HashWord(base+uint64(i)*8, v))
	}
	return d
}

type zeroKey struct {
	base  uint64
	words int
}

// ZeroSumCache memoizes ZeroSum per (base, words) run. Allocation sites are
// reused across a program's lifetime (and across the runs of a checking
// campaign via deterministic malloc replay), so the same runs recur at every
// checkpoint; caching turns the per-checkpoint Σ h(a,0) recomputation into
// one map probe per run. Not safe for concurrent use.
type ZeroSumCache struct {
	h Hasher
	m map[zeroKey]Digest
}

// NewZeroSumCache returns an empty cache over h. A nil h selects Mix64.
func NewZeroSumCache(h Hasher) *ZeroSumCache {
	if h == nil {
		h = Mix64{}
	}
	return &ZeroSumCache{h: h, m: make(map[zeroKey]Digest)}
}

// Sum returns the memoized Σ h(base+i*8, 0) over words words.
func (c *ZeroSumCache) Sum(base uint64, words int) Digest {
	k := zeroKey{base, words}
	if d, ok := c.m[k]; ok {
		return d
	}
	d := ZeroSum(c.h, base, words)
	c.m[k] = d
	return d
}

// Len returns the number of cached runs.
func (c *ZeroSumCache) Len() int { return len(c.m) }
