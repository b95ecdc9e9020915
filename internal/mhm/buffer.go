package mhm

import "instantcheck/internal/ihash"

// This file implements the per-thread store buffer: the software analogue of
// the write-buffer amortization a real MHM datapath gets for free (§3.2's
// multi-cluster design dispatches hash terms in arbitrary order and merges
// them later). Instead of paying two HashWord calls inside every store, the
// unit parks (addr, old, new) triples in a small open-addressed table and
// hashes them — through one devirtualized pass over the table — only when
// the Thread Hash becomes observable.
//
// Coalescing. Consecutive stores to the same address telescope: the pair
// ⊖h(a,A)⊕h(a,B) followed by ⊖h(a,B)⊕h(a,C) sums to ⊖h(a,A)⊕h(a,C), exactly,
// because the ⊕h(a,B) and ⊖h(a,B) terms are inverses in the mod-2^64 group.
// The buffer therefore keeps one entry per address, remembering the first
// old value and the latest new one — a word stored k times in a window costs
// one hash pair instead of k.
//
// The merge is legal only when the incoming store's old value equals the
// pending entry's new value; that is checked on every hit. A mismatch means
// the telescoping chain was broken between this thread's two stores —
// another thread wrote the word in between (its own pair carries the
// intermediate values), or an unhashed store ran while hashing was stopped.
// The conflict path emits the pending pair exactly as the inline scheme
// would have and restarts the entry, so the per-thread TH is bit-identical
// to unbatched hashing at every drain — no flushing at context switches is
// required for correctness, which is what lets the coalescing window span
// whole scheduler quanta.
//
// Rounding happens at drain (the round-off unit sits in front of the hash
// unit, §3.1): entries hold raw bit patterns, and every point that can
// change the rounding mode drains first, so the mode at drain time is the
// mode the stores ran under.

// bufSlot is one pending coalesced update, 24 bytes. key is the word
// address with the store's FP flag packed into bit 0 (word addresses are
// 8-aligned, so bits 0–2 are free); keying on (addr, kind) keeps integer
// and FP updates of a recycled word in separate entries, each drained under
// its own rounding treatment, exactly as the inline scheme hashes them.
// key 0 marks an empty slot; the simulator's address space starts well
// above 0, and a literal store to address 0 bypasses the buffer (see
// bufferStore).
type bufSlot struct {
	key uint64
	old uint64
	new uint64
}

const bufFPBit = 1

type storeBuffer struct {
	slots []bufSlot // open-addressed, power-of-two size, ≤50% load
	mask  uint64
	shift uint
	used  []uint32 // occupied slot indices in insertion order
	limit int      // entry count that forces a drain
}

// SetStoreBuffer attaches a store buffer holding up to words coalesced
// entries between drains (the simulator attaches sim.StoreBufferAutoWords
// for HWInc and SWInc). Any existing buffer is drained first; words <= 0
// detaches the buffer and restores inline per-store hashing.
func (u *Unit) SetStoreBuffer(words int) {
	u.drain()
	if words <= 0 {
		u.buf = nil
		return
	}
	k := uint(1)
	for 1<<k < words*2 {
		k++
	}
	u.buf = &storeBuffer{
		slots: make([]bufSlot, 1<<k),
		mask:  1<<k - 1,
		shift: 64 - k,
		used:  make([]uint32, 0, words),
		limit: words,
	}
}

// PendingWords returns the number of buffered updates not yet drained.
func (u *Unit) PendingWords() int {
	if u.buf == nil {
		return 0
	}
	return len(u.buf.used)
}

// FlushStoreBuffer drains every pending update into TH. The machine calls
// it at thread exit; all other drain points (TH reads, save/restore,
// start/stop_hashing, rounding flips, a full buffer) drain internally.
func (u *Unit) FlushStoreBuffer() { u.drain() }

// bufferStore parks one store in the buffer, coalescing per (addr, kind).
func (u *Unit) bufferStore(b *storeBuffer, addr, old, new uint64, isFP bool) {
	if addr == 0 {
		// Address 0 would collide with the empty-slot sentinel; hash it
		// inline. Simulated programs never store there (the address space
		// starts at the static base), so this guards only direct Unit use.
		u.applyPair(addr, old, new, isFP)
		return
	}
	key := addr
	if isFP {
		key |= bufFPBit
	}
	i := key * 0x9e3779b97f4a7c15 >> b.shift
	for {
		s := &b.slots[i]
		if s.key == key {
			if s.new == old {
				s.new = new // telescope: ⊕h(a,old) cancels ⊖h(a,old) exactly
				u.stats.CoalescedStores++
				return
			}
			// Chain broken (cross-thread write, or an unhashed store while
			// hashing was stopped): emit the pending pair exactly as the
			// inline path would have, then restart the entry.
			u.stats.ConflictEvictions++
			u.applyPair(addr, s.old, s.new, isFP)
			s.old, s.new = old, new
			return
		}
		if s.key == 0 {
			s.key, s.old, s.new = key, old, new
			b.used = append(b.used, uint32(i))
			if len(b.used) >= b.limit {
				u.drain()
			}
			return
		}
		i = (i + 1) & b.mask
	}
}

// applyPair performs one inline ⊖h(a,old)⊕h(a,new) update under the current
// rounding mode — the unbatched store path, shared by the conflict-eviction
// emit. Stats for the store were already counted at append time.
func (u *Unit) applyPair(addr, old, new uint64, isFP bool) {
	if isFP && u.rounding {
		old = u.policy.RoundBits(old)
		new = u.policy.RoundBits(new)
	}
	u.accumulate(u.hasher.HashWord(addr, old).Negate())
	u.accumulate(ihash.Digest(u.hasher.HashWord(addr, new)))
}

// drain hashes every pending entry in one pass over the table, straight
// out of the slots with no gather copy, with the location hash
// devirtualized for the default Mix64 (the same specialization the
// BatchInsert and ZeroSum kernels apply). The whole batch enters
// the datapath as a single dispatched term — legal, like every reordering
// here, because ⊕ is commutative and associative (§3.2).
func (u *Unit) drain() {
	b := u.buf
	if b == nil || len(b.used) == 0 {
		return
	}
	u.stats.BufferFlushes++
	round := u.rounding
	var drained, elided uint64
	var sum ihash.Digest
	if _, isMix := u.hasher.(ihash.Mix64); isMix {
		var mh ihash.Mix64
		for _, i := range b.used {
			s := &b.slots[i]
			old, new := s.old, s.new
			if s.key&bufFPBit != 0 && round {
				old = u.policy.RoundBits(old)
				new = u.policy.RoundBits(new)
			}
			if old == new {
				// The window's stores net to no change — a store-back of
				// the same value, a whole malloc→store→free lifetime whose
				// erase coalesced back to the zero it started from, or two
				// values the round-off unit collapsed. ⊖h⊕h cancels
				// exactly, so the entry drops without being hashed at all.
				elided++
			} else {
				a := s.key &^ bufFPBit
				sum = sum.Subtract(mh.HashWord(a, old)).Combine(mh.HashWord(a, new))
				drained++
			}
			s.key = 0
		}
	} else {
		for _, i := range b.used {
			s := &b.slots[i]
			old, new := s.old, s.new
			if s.key&bufFPBit != 0 && round {
				old = u.policy.RoundBits(old)
				new = u.policy.RoundBits(new)
			}
			if old == new {
				elided++
			} else {
				a := s.key &^ bufFPBit
				sum = sum.Subtract(u.hasher.HashWord(a, old)).Combine(u.hasher.HashWord(a, new))
				drained++
			}
			s.key = 0
		}
	}
	b.used = b.used[:0]
	u.stats.DrainedWords += drained
	u.stats.ElidedWords += elided
	u.accumulate(sum)
}
