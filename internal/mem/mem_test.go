package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAllocZeroFilled checks allocations come back zeroed (InstantCheck's
// allocator interception, §5) and report the right geometry.
func TestAllocZeroFilled(t *testing.T) {
	m := New()
	b := m.Alloc("site", 10, KindWord)
	if b.Words != 10 || !b.Live || b.Static {
		t.Fatalf("block = %+v", b)
	}
	for i := 0; i < 10; i++ {
		if got := m.Load(b.Base + uint64(i)*WordSize); got != 0 {
			t.Errorf("word %d = %d, want 0", i, got)
		}
	}
}

// TestStoreReturnsOld checks the Data_old path the MHM depends on.
func TestStoreReturnsOld(t *testing.T) {
	m := New()
	b := m.Alloc("s", 1, KindWord)
	if old := m.Store(b.Base, 5); old != 0 {
		t.Errorf("first old = %d", old)
	}
	if old := m.Store(b.Base, 9); old != 5 {
		t.Errorf("second old = %d", old)
	}
	if m.Load(b.Base) != 9 {
		t.Error("load after store")
	}
}

// TestSiteSequenceNumbers checks per-site allocation sequence numbering —
// the key under which the replay allocator logs addresses.
func TestSiteSequenceNumbers(t *testing.T) {
	m := New()
	a0 := m.Alloc("a", 1, KindWord)
	b0 := m.Alloc("b", 1, KindWord)
	a1 := m.Alloc("a", 1, KindWord)
	if a0.Seq != 0 || a1.Seq != 1 || b0.Seq != 0 {
		t.Errorf("seqs: a0=%d a1=%d b0=%d", a0.Seq, a1.Seq, b0.Seq)
	}
}

// TestAddrHookReplay checks the allocator places blocks at hook-supplied
// addresses and extends the bump pointer past them.
func TestAddrHookReplay(t *testing.T) {
	m1 := New()
	first := m1.Alloc("x", 4, KindWord)
	second := m1.Alloc("x", 4, KindWord)

	// Replay into a fresh memory with the recorded addresses, in the
	// opposite request order.
	logged := map[int]uint64{0: first.Base, 1: second.Base}
	m2 := New()
	calls := 0
	m2.AddrHook = func(site string, seq, words int) (uint64, bool) {
		calls++
		a, ok := logged[seq]
		return a, ok
	}
	r0 := m2.Alloc("x", 4, KindWord)
	r1 := m2.Alloc("x", 4, KindWord)
	if r0.Base != first.Base || r1.Base != second.Base {
		t.Errorf("replayed bases %#x/%#x, want %#x/%#x", r0.Base, r1.Base, first.Base, second.Base)
	}
	if calls != 2 {
		t.Errorf("hook calls = %d", calls)
	}
	// An unknown key falls through to a fresh bump address beyond them.
	r2 := m2.Alloc("x", 4, KindWord)
	if r2.Base <= r1.Base {
		t.Errorf("fresh address %#x not beyond replayed ones", r2.Base)
	}
}

// TestDoublePlacementPanics checks the allocator refuses to place a block
// over a live one.
func TestDoublePlacementPanics(t *testing.T) {
	m := New()
	b := m.Alloc("x", 1, KindWord)
	m.AddrHook = func(string, int, int) (uint64, bool) { return b.Base, true }
	defer func() {
		if recover() == nil {
			t.Error("no panic on overlapping placement")
		}
	}()
	m.Alloc("y", 1, KindWord)
}

// TestUseAfterFreePanics checks freed memory is inaccessible — the
// simulator's built-in use-after-free detector.
func TestUseAfterFreePanics(t *testing.T) {
	m := New()
	b := m.Alloc("x", 2, KindWord)
	m.Free(b.Base)
	defer func() {
		if recover() == nil {
			t.Error("no panic on use-after-free")
		}
	}()
	m.Load(b.Base)
}

// TestMisalignedPanics checks the word-grain contract.
func TestMisalignedPanics(t *testing.T) {
	m := New()
	b := m.Alloc("x", 1, KindWord)
	defer func() {
		if recover() == nil {
			t.Error("no panic on misaligned access")
		}
	}()
	m.Load(b.Base + 3)
}

// TestFreeErrors checks double free / freeing non-blocks / freeing statics.
func TestFreeErrors(t *testing.T) {
	m := New()
	b := m.Alloc("x", 1, KindWord)
	m.Free(b.Base)
	mustPanic(t, "double free", func() { m.Free(b.Base) })
	mustPanic(t, "free of wild address", func() { m.Free(0xdead000) })
	s := m.AllocStatic("st", 1, KindWord)
	mustPanic(t, "free of static", func() { m.Free(s) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("no panic: %s", what)
		}
	}()
	f()
}

// TestLiveWordsAccounting checks the Tr-sweep size bookkeeping.
func TestLiveWordsAccounting(t *testing.T) {
	m := New()
	m.AllocStatic("s", 5, KindWord)
	if m.LiveWords() != 5 || m.StaticWords() != 5 {
		t.Fatalf("static: live=%d static=%d", m.LiveWords(), m.StaticWords())
	}
	b := m.Alloc("h", 7, KindFloat)
	if m.LiveWords() != 12 {
		t.Fatalf("after alloc: %d", m.LiveWords())
	}
	m.Free(b.Base)
	if m.LiveWords() != 5 {
		t.Fatalf("after free: %d", m.LiveWords())
	}
}

// TestTraverseOrderAndContent checks TraverseRuns visits exactly the live
// words, in ascending address order, with the right kinds — determinism of
// this order is what keeps traversal hashing reproducible.
func TestTraverseOrderAndContent(t *testing.T) {
	m := New()
	s := m.AllocStatic("s", 2, KindWord)
	h1 := m.Alloc("h1", 2, KindFloat)
	h2 := m.Alloc("h2", 1, KindWord)
	m.Store(s, 10)
	m.Store(h1.Base, 20)
	m.Store(h2.Base, 30)
	m.Free(h1.Base)

	var addrs []uint64
	var kinds []Kind
	m.TraverseRuns(func(base uint64, words []uint64, k Kind) {
		for i := range words {
			addrs = append(addrs, base+uint64(i)*WordSize)
			kinds = append(kinds, k)
		}
	})
	if len(addrs) != 3 { // 2 static + 1 live heap
		t.Fatalf("visited %d words", len(addrs))
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i] <= addrs[i-1] {
			t.Fatal("traversal not in ascending order")
		}
	}
	if kinds[0] != KindWord || kinds[2] != KindWord {
		t.Error("kinds wrong")
	}
}

// TestBlockAt checks containment lookup across live and freed blocks.
func TestBlockAt(t *testing.T) {
	m := New()
	a := m.Alloc("a", 4, KindWord)
	b := m.Alloc("b", 4, KindWord)
	if got := m.BlockAt(a.Base + 3*WordSize); got != a {
		t.Error("interior lookup failed")
	}
	if got := m.BlockAt(a.End()); got != b && got != nil {
		// a.End() may fall into padding before b; must never return a.
		t.Error("end address attributed to preceding block")
	}
	m.Free(a.Base)
	if m.BlockAt(a.Base) != nil {
		t.Error("freed block still live in BlockAt")
	}
	if m.BlockByBase(a.Base) == nil {
		t.Error("freed block lost from BlockByBase (state-diff needs it)")
	}
}

// TestSnapshot checks snapshots are point-in-time copies.
func TestSnapshot(t *testing.T) {
	m := New()
	b := m.Alloc("x", 2, KindWord)
	m.Store(b.Base, 11)
	snap := m.Snapshot()
	m.Store(b.Base, 99)
	if v, ok := snap.Word(b.Base); !ok || v != 11 {
		t.Error("snapshot mutated by later store")
	}
	if sb := snap.BlockAt(b.Base + WordSize); sb == nil || sb.Site != "x" {
		t.Error("snapshot block lookup")
	}
	if snap.BlockAt(0xdeadbeef0) != nil {
		t.Error("wild snapshot lookup")
	}
}

// TestNoOverlapProperty property-checks that arbitrary interleavings of
// alloc and free never produce overlapping live blocks.
func TestNoOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		var live []*Block
		for i := 0; i < 100; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				m.Free(live[k].Base)
				live = append(live[:k], live[k+1:]...)
				continue
			}
			site := string(rune('a' + rng.Intn(5)))
			live = append(live, m.Alloc(site, rng.Intn(30)+1, KindWord))
		}
		for i, a := range live {
			for _, b := range live[i+1:] {
				if a.Base < b.End() && b.Base < a.End() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestKindString pins diagnostics.
func TestKindString(t *testing.T) {
	if KindWord.String() != "word" || KindFloat.String() != "float" {
		t.Error("kind strings")
	}
}
