package mhm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"instantcheck/internal/fpround"
	"instantcheck/internal/ihash"
)

// pair makes a buffered unit and an inline reference unit with identical
// configuration; every equivalence test drives both with the same stream
// and compares digests at observation points.
func pair(words int) (buffered, inline *Unit) {
	buffered = New(nil, fpround.Default)
	buffered.SetStoreBuffer(words)
	inline = New(nil, fpround.Default)
	return buffered, inline
}

// TestBufferedEqualsInline is the core bit-identity property: any stream of
// stores, frees, explicit minus/plus pairs, save/restore cycles, hashing
// gates and rounding flips produces the same TH through the buffer as
// through per-store hashing — at every TH observation, not just the last.
func TestBufferedEqualsInline(t *testing.T) {
	f := func(seed int64, nOps uint8, words uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b, ref := pair(int(words)%64 + 1)
		// A small address pool makes coalescing, conflicts and elisions
		// all common; track each word's current value so old values chain
		// like real memory traffic (and occasionally break the chain).
		addrs := []uint64{0x10000, 0x10008, 0x10010, 0x10018}
		vals := make(map[uint64]uint64)
		var saved []struct {
			d    [2]uint64
			vals map[uint64]uint64
		}
		for i := 0; i < int(nOps)%96+8; i++ {
			a := addrs[rng.Intn(len(addrs))]
			fp := rng.Intn(2) == 0
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // store
				old, new := vals[a], rng.Uint64()
				if rng.Intn(8) == 0 {
					old = rng.Uint64() // torn chain: forces a conflict eviction
				}
				vals[a] = new
				b.OnStore(a, old, new, fp)
				ref.OnStore(a, old, new, fp)
			case 5: // free (erase to zero)
				b.OnFree(a, vals[a], fp)
				ref.OnFree(a, vals[a], fp)
				vals[a] = 0
			case 6: // rounding flip
				if b.Rounding() {
					b.StopFPRounding()
					ref.StopFPRounding()
				} else {
					b.StartFPRounding()
					ref.StartFPRounding()
				}
			case 7: // hashing gate
				if b.Hashing() {
					b.StopHashing()
					ref.StopHashing()
				} else {
					b.StartHashing()
					ref.StartHashing()
				}
			case 8: // save, maybe restore later
				bd, rd := b.SaveHash(), ref.SaveHash()
				if bd != rd {
					return false
				}
				snap := make(map[uint64]uint64, len(vals))
				for k, v := range vals {
					snap[k] = v
				}
				saved = append(saved, struct {
					d    [2]uint64
					vals map[uint64]uint64
				}{[2]uint64{uint64(bd), uint64(rd)}, snap})
			case 9: // restore the most recent save
				if n := len(saved); n > 0 {
					s := saved[n-1]
					saved = saved[:n-1]
					b.RestoreHash(ihash.Digest(s.d[0]))
					ref.RestoreHash(ihash.Digest(s.d[1]))
					vals = s.vals
				}
			}
		}
		return b.TH() == ref.TH()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestDrainPoints walks every observable point and checks it leaves the
// buffer empty: TH, SaveHash, RestoreHash, StopHashing, both rounding
// flips, SetStoreBuffer and FlushStoreBuffer.
func TestDrainPoints(t *testing.T) {
	drains := []struct {
		name string
		obs  func(u *Unit)
	}{
		{"TH", func(u *Unit) { u.TH() }},
		{"SaveHash", func(u *Unit) { u.SaveHash() }},
		{"RestoreHash", func(u *Unit) { u.RestoreHash(ihash.Zero) }},
		{"StopHashing", func(u *Unit) { u.StopHashing() }},
		{"StartFPRounding", func(u *Unit) { u.StartFPRounding() }},
		{"StopFPRounding", func(u *Unit) { u.StopFPRounding() }},
		{"SetStoreBuffer", func(u *Unit) { u.SetStoreBuffer(32) }},
		{"FlushStoreBuffer", func(u *Unit) { u.FlushStoreBuffer() }},
	}
	for _, d := range drains {
		u := New(nil, fpround.Default)
		u.SetStoreBuffer(16)
		u.OnStore(0x10000, 0, 7, false)
		u.OnStore(0x10008, 0, 9, true)
		if u.PendingWords() != 2 {
			t.Fatalf("%s: pending = %d before drain, want 2", d.name, u.PendingWords())
		}
		d.obs(u)
		if u.PendingWords() != 0 {
			t.Errorf("%s left %d words buffered", d.name, u.PendingWords())
		}
		if u.Stats().BufferFlushes != 1 {
			t.Errorf("%s: flushes = %d, want 1", d.name, u.Stats().BufferFlushes)
		}
	}
}

// TestBufferFullDrains checks the capacity trigger: the limit-th distinct
// address forces a drain without any observation.
func TestBufferFullDrains(t *testing.T) {
	u := New(nil, fpround.Default)
	u.SetStoreBuffer(4)
	for i := 0; i < 3; i++ {
		u.OnStore(0x10000+uint64(i)*8, 0, uint64(i)+1, false)
	}
	if got := u.Stats().BufferFlushes; got != 0 {
		t.Fatalf("flushes = %d before capacity, want 0", got)
	}
	u.OnStore(0x20000, 0, 9, false)
	s := u.Stats()
	if s.BufferFlushes != 1 || s.DrainedWords != 4 {
		t.Errorf("flushes = %d drained = %d after capacity store, want 1/4", s.BufferFlushes, s.DrainedWords)
	}
	if u.PendingWords() != 0 {
		t.Errorf("pending = %d after capacity drain", u.PendingWords())
	}
}

// TestCoalescingTelescopes checks k chained stores to one address cost one
// drained pair, and that legacy per-store stats still count all k.
func TestCoalescingTelescopes(t *testing.T) {
	b, ref := pair(16)
	vals := []uint64{0, 3, 8, 1, 42}
	for i := 1; i < len(vals); i++ {
		b.OnStore(0x10000, vals[i-1], vals[i], false)
		ref.OnStore(0x10000, vals[i-1], vals[i], false)
	}
	if b.TH() != ref.TH() {
		t.Fatal("coalesced digest differs from inline")
	}
	s := b.Stats()
	if s.CoalescedStores != 3 || s.DrainedWords != 1 || s.ConflictEvictions != 0 {
		t.Errorf("coalesced/drained/evicted = %d/%d/%d, want 3/1/0",
			s.CoalescedStores, s.DrainedWords, s.ConflictEvictions)
	}
	if s.HashedStores != ref.Stats().HashedStores {
		t.Errorf("HashedStores diverged: buffered %d, inline %d", s.HashedStores, ref.Stats().HashedStores)
	}
}

// TestConflictEviction checks a broken telescoping chain (the incoming old
// value differs from the pending new one) emits the pending pair inline and
// stays bit-identical to unbatched hashing.
func TestConflictEviction(t *testing.T) {
	b, ref := pair(16)
	// Thread sees 5 where it last wrote 3: another thread's store landed
	// in between (that thread hashes its own 3→5 pair).
	stores := [][2]uint64{{0, 3}, {5, 9}}
	for _, s := range stores {
		b.OnStore(0x10000, s[0], s[1], false)
		ref.OnStore(0x10000, s[0], s[1], false)
	}
	if b.TH() != ref.TH() {
		t.Fatal("conflict path digest differs from inline")
	}
	s := b.Stats()
	if s.ConflictEvictions != 1 || s.CoalescedStores != 0 {
		t.Errorf("evictions/coalesced = %d/%d, want 1/0", s.ConflictEvictions, s.CoalescedStores)
	}
}

// TestElision checks a window whose stores net to no change drops without
// hashing: A→B→A coalesces to A→A, and a word freed inside its creation
// window (0→v then erase back to 0) costs zero hash work.
func TestElision(t *testing.T) {
	b, ref := pair(16)
	b.OnStore(0x10000, 7, 9, false)
	b.OnStore(0x10000, 9, 7, false)
	ref.OnStore(0x10000, 7, 9, false)
	ref.OnStore(0x10000, 9, 7, false)

	b.OnStore(0x10008, 0, 5, false) // word born...
	b.OnFree(0x10008, 5, false)     // ...and freed in one window
	ref.OnStore(0x10008, 0, 5, false)
	ref.OnFree(0x10008, 5, false)

	if b.TH() != ref.TH() {
		t.Fatal("elided digest differs from inline")
	}
	s := b.Stats()
	if s.ElidedWords != 2 || s.DrainedWords != 0 {
		t.Errorf("elided/drained = %d/%d, want 2/0", s.ElidedWords, s.DrainedWords)
	}
	if s.MinusOps != 1 || s.PlusOps != 1 {
		t.Errorf("free accounting: minus/plus = %d/%d, want 1/1", s.MinusOps, s.PlusOps)
	}
}

// TestFPKindFlip checks an address stored as an integer and restored as FP
// (a realloc changing a word's kind) keeps the two kinds in separate
// entries — the buffer keys on (addr, kind), so updates that would round
// differently never merge and no conflict eviction is needed. The FP entry
// here rounds to old == new and elides; the integer entry drains.
func TestFPKindFlip(t *testing.T) {
	b, ref := pair(16)
	b.StartFPRounding()
	ref.StartFPRounding()
	bits := uint64(0x3ff0000000000001) // 1.0 + ulp: rounding is lossy
	for _, u := range []*Unit{b, ref} {
		u.OnStore(0x10000, 0, bits, false)
		u.OnStore(0x10000, bits, bits, true) // same values, different kind
	}
	if b.TH() != ref.TH() {
		t.Fatal("kind-flip digest differs from inline")
	}
	s := b.Stats()
	if s.ConflictEvictions != 0 {
		t.Errorf("evictions = %d, want 0 (kinds occupy separate entries)", s.ConflictEvictions)
	}
	if s.DrainedWords != 1 || s.ElidedWords != 1 {
		t.Errorf("drained/elided = %d/%d, want 1/1 (fp entry rounds to old == new)",
			s.DrainedWords, s.ElidedWords)
	}
}

// TestRoundingModeAtDrain checks entries are rounded under the mode their
// stores ran under: flipping the mode drains first, so a store before the
// flip is hashed raw and one after is hashed rounded.
func TestRoundingModeAtDrain(t *testing.T) {
	b, ref := pair(16)
	bits := uint64(0x3ff0000000000001)
	for _, u := range []*Unit{b, ref} {
		u.OnStore(0x10000, 0, bits, true) // rounding off: raw bits
		u.StartFPRounding()               // drains the buffered unit
		u.OnStore(0x10008, 0, bits, true) // rounding on: rounded bits
	}
	if b.TH() != ref.TH() {
		t.Fatal("rounding-boundary digest differs from inline")
	}
	if got := b.Stats().RoundedStores; got != ref.Stats().RoundedStores {
		t.Errorf("RoundedStores diverged: buffered %d, inline %d", got, ref.Stats().RoundedStores)
	}
}

// TestSetStoreBufferDetaches checks words <= 0 drains and restores inline
// hashing.
func TestSetStoreBufferDetaches(t *testing.T) {
	u := New(nil, fpround.Default)
	u.SetStoreBuffer(16)
	u.OnStore(0x10000, 0, 7, false)
	u.SetStoreBuffer(0)
	if u.buf != nil {
		t.Fatal("buffer still attached")
	}
	if u.Stats().BufferFlushes != 1 {
		t.Fatal("detach did not drain the pending entry")
	}
	u.OnStore(0x10008, 0, 9, false)
	if u.Stats().DrainedWords != 1 {
		t.Errorf("inline store after detach was counted as drained")
	}
	ref := New(nil, fpround.Default)
	ref.OnStore(0x10000, 0, 7, false)
	ref.OnStore(0x10008, 0, 9, false)
	if u.TH() != ref.TH() {
		t.Error("detached unit digest differs from inline")
	}
}

// TestStatsDoesNotDrain pins that reading Stats is not an observation of
// TH: counters are inspectable mid-window without perturbing batching.
func TestStatsDoesNotDrain(t *testing.T) {
	u := New(nil, fpround.Default)
	u.SetStoreBuffer(16)
	u.OnStore(0x10000, 0, 7, false)
	_ = u.Stats()
	if u.PendingWords() != 1 {
		t.Error("Stats() drained the buffer")
	}
}
