// Package mem implements the simulated shared memory InstantCheck observes:
// a 64-bit word-grained address space with an allocation table that records,
// for every live block, its allocation site, extent, and element kind. The
// table serves three of the paper's mechanisms:
//
//   - traversal hashing (SW-InstantCheck_Tr, §4.2) walks the static segment
//     plus the table of live allocations;
//   - the state-diff debugging tool (§2.3) maps a differing address back to
//     the source line that allocated it and the offset within the block;
//   - FP round-off during traversal needs to know which words hold doubles,
//     information the paper encodes as per-site type annotations.
//
// Memory is byte-addressed with 8-byte-aligned 8-byte words, matching the
// paper's model of hashing (virtual address, value) pairs at store
// granularity. Allocations are zero-filled, as InstantCheck's allocator
// interception does (§5), so that uninitialized garbage can never corrupt
// the state hash.
//
// Because every simulated load and store funnels through this package, it is
// the hottest layer of the whole system. The backing store is a two-level
// dense page directory (pure slice indexing, no map hash per access) with a
// one-entry page cache, and block lookup combines a one-entry last-block
// cache with page-granular owner metadata so the common sequential access
// resolves in O(1); only cold misses fall back to binary search over the
// sorted block table.
package mem

import (
	"fmt"
	"math/bits"
	"sort"
	"unsafe"
)

// WordSize is the grain of the simulated memory in bytes.
const WordSize = 8

// Kind describes what a word holds, so the hashing layers know whether the
// FP round-off unit applies. The paper obtains this from the compiler (LLVM
// marks FP stores) for the incremental schemes and from allocation-site type
// annotations for the traversal scheme.
type Kind uint8

const (
	// KindWord is an integer/pointer/opaque 64-bit word.
	KindWord Kind = iota
	// KindFloat is an IEEE-754 float64 stored as its bit pattern.
	KindFloat
)

// String returns "word" or "float".
func (k Kind) String() string {
	if k == KindFloat {
		return "float"
	}
	return "word"
}

// Block describes one allocation (or one static segment entry).
type Block struct {
	// Base is the address of the first word. Always WordSize-aligned.
	Base uint64
	// Words is the block length in 8-byte words.
	Words int
	// Site is the allocation-site label ("file:line" morally; any stable
	// string). The state-diff tool reports it to the programmer.
	Site string
	// Kind is the element kind of every word in the block. Mixed-kind
	// records are modeled as adjacent blocks of uniform kind, which is how
	// the paper's recursive type annotations flatten out.
	Kind Kind
	// Static marks blocks in the static data segment: allocated at setup,
	// never freed, always part of the hashed state.
	Static bool
	// Seq is the per-site allocation sequence number (0-based). Together
	// with Site it identifies "the j-th allocation at this site", the key
	// under which the deterministic-replay allocator logs addresses.
	Seq int
	// Live is false once the block has been freed.
	Live bool
}

// End returns the address one past the last word of the block.
func (b *Block) End() uint64 { return b.Base + uint64(b.Words)*WordSize }

// Contains reports whether addr falls inside the block.
func (b *Block) Contains(addr uint64) bool { return addr >= b.Base && addr < b.End() }

const (
	// StaticBase is where the static data segment begins.
	StaticBase uint64 = 0x0000_0000_0001_0000
	// HeapBase is where dynamic allocation begins.
	HeapBase uint64 = 0x0000_0000_1000_0000
	// PageWords is the granularity of the backing store and of TraverseRuns
	// visits: runs never cross a PageWords-aligned boundary, so hashing
	// layers can key per-run caches on (base, len) with bounded cardinality.
	PageWords = 512
	pageWords = PageWords
	pageBytes = pageWords * WordSize

	// The page directory is two levels deep: a root slice indexed by
	// pageNumber>>leafBits holding leaves of 1<<leafBits page slots each.
	// One leaf spans 512 KiB of address space. Leaves are kept small because
	// a Memory is created per simulated run and a leaf is the directory's
	// unit of allocation: small programs touch one or two leaves, and the
	// per-run setup cost must not dwarf the run itself.
	leafBits = 7
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
)

type page [pageWords]uint64

// leaf is one second-level node of the page directory: the backing pages for
// a 512 KiB address window plus, per page, the live block that fully covers
// the page (nil when the page straddles block boundaries or holes). The
// owner metadata is what makes liveness checking O(1) for interior pages of
// large allocations. dirty is the per-page dirty bitmap consumed by the
// delta checkpoint sweep: a set bit means the page's contribution to the
// state hash may have changed since the last ClearDirty, or since New
// before the first one.
type leaf struct {
	pages [leafSize]*page
	owner [leafSize]*Block
	dirty [leafSize / 64]uint64
}

// zeroRun backs the word slices TraverseRuns hands out for words whose
// backing page was never materialized (allocated but never stored to, hence
// still zero). It must never be written.
var zeroRun [pageWords]uint64

// IsZeroRun reports whether a slice passed to a TraverseRuns visitor is the
// shared all-zero run: the words exist in the hashed state but have no
// backing page because they were never stored to. Hashing layers use this to
// take the cancellation shortcut h(a,0) ⊖ h(a,0) = 0 without touching the
// words at all.
func IsZeroRun(words []uint64) bool {
	return len(words) > 0 && &words[0] == &zeroRun[0]
}

// Memory is one simulated address space. It is not safe for concurrent use;
// the serializing scheduler guarantees only one thread touches it at a time.
type Memory struct {
	// dir is the root of the two-level page directory, indexed by
	// pageNumber >> leafBits.
	dir []*leaf

	// blocks maps base address -> block, for both live and freed heap
	// blocks (freed ones kept so the state-diff tool can still attribute
	// dangling pointers). order holds blocks sorted by base ascending; a
	// freed block stays in place as a tombstone (Live == false) until a
	// batched compaction sweep reclaims the slots, so Free never pays an
	// O(n) slice shift.
	blocks map[uint64]*Block
	order  []*Block
	dead   int // tombstones currently in order

	// cacheBlock is the last live block a lookup resolved to; sequential
	// access patterns hit it without any search. It is never nil: when no
	// block is cached it points at noBlock, whose Base makes every
	// containment test fail, so BlockAt's probe needs no nil check.
	// Invalidated (reset to &noBlock) on Free.
	cacheBlock *Block
	// cachePage/cachePageBase memoize the last materialized page touched.
	// Pages are never unmapped, so this cache needs no invalidation.
	cachePage     *page
	cachePageBase uint64
	// The fast window is the intersection of the last-resolved live block
	// and its materialized page: [fastBase, fastBase+fastLen) in bytes,
	// with fastWin pointing at the first backing word. Within it a
	// Load/Store is one range check plus an unchecked word access — cheap
	// enough that the compiler inlines the whole access into the
	// simulator's instrumentation (the range check subsumes the bounds
	// check a slice would repeat). fastWin always points into a page kept
	// alive by the directory. Cleared when the owning block is freed.
	fastBase uint64
	fastLen  uint64
	fastWin  unsafe.Pointer
	// fastDirty/fastDirtyMask address the dirty bit of the fast window's
	// page: a window-hit store marks its page with a single masked OR, the
	// only dirty-tracking cost on the inlined hit path. Valid whenever
	// fastLen > 0 (the window always maps a materialized page, whose leaf
	// therefore exists).
	fastDirty     *uint64
	fastDirtyMask uint64

	// fastLoadMiss and fastStoreMiss count slow-path resolutions: accesses
	// that fell through the fast window into loadSlow/storeSlow (including
	// checker-internal stores such as the zeroing on free). They exist for
	// the observability layer's fast-window hit-rate metric and are plain
	// fields deliberately: the window-hit path itself carries no counting,
	// so enabling metrics costs the fast path nothing — hits are derived at
	// flush time as total accesses minus misses.
	fastLoadMiss  uint64
	fastStoreMiss uint64

	staticNext uint64
	heapNext   uint64

	// AddrHook, when non-nil, intercepts heap allocation placement: given
	// (site, seq, words) it may return a previously logged address. This is
	// the attachment point for the paper's malloc record/replay (§5).
	AddrHook func(site string, seq int, words int) (addr uint64, ok bool)

	siteSeq map[string]int

	liveWords   int
	staticWords int
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{
		blocks:     make(map[uint64]*Block),
		cacheBlock: &noBlock,
		staticNext: StaticBase,
		heapNext:   HeapBase,
		siteSeq:    make(map[string]int),
	}
}

// noBlock is the block cache's empty sentinel: its Base is chosen so that
// addr - Base never falls inside any possible block extent, making the
// cache probe in BlockAt fail without a nil check.
var noBlock = Block{Base: ^uint64(0)}

// AllocStatic reserves words in the static segment under the given site
// label. Static memory is always part of the hashed program state.
func (m *Memory) AllocStatic(site string, words int, kind Kind) uint64 {
	if words <= 0 {
		panic("mem: static allocation of non-positive size")
	}
	base := m.staticNext
	m.staticNext += roundUpWords(words)
	b := &Block{Base: base, Words: words, Site: site, Kind: kind, Static: true, Live: true}
	m.insertBlock(b)
	m.staticWords += words
	m.liveWords += words
	m.zeroLive(base, words)
	m.markDirtyRange(base, words)
	return base
}

// Alloc allocates a zero-filled block of words under the given site label
// and returns its base address. If AddrHook supplies a logged address for
// (site, seq) the block is placed there, implementing deterministic replay
// of malloc; otherwise a fresh bump address is used.
func (m *Memory) Alloc(site string, words int, kind Kind) *Block {
	if words <= 0 {
		panic("mem: allocation of non-positive size")
	}
	seq := m.siteSeq[site]
	m.siteSeq[site] = seq + 1
	var base uint64
	placed := false
	if m.AddrHook != nil {
		if a, ok := m.AddrHook(site, seq, words); ok {
			base = a
			placed = true
		}
	}
	if !placed {
		base = m.heapNext
		m.heapNext += roundUpWords(words)
	} else if base >= m.heapNext {
		m.heapNext = base + roundUpWords(words)
	}
	if old, exists := m.blocks[base]; exists && old.Live {
		panic(fmt.Sprintf("mem: allocator placed block at %#x which is still live (site %s)", base, old.Site))
	}
	b := &Block{Base: base, Words: words, Site: site, Kind: kind, Seq: seq, Live: true}
	m.insertBlock(b)
	m.liveWords += words
	// Zero-fill, as InstantCheck's allocator interception does. Only words
	// with a materialized backing page need explicit clearing: fresh pages
	// read as zero already. Dirty marking elides the same pages the
	// zero-fill does: an unmaterialized page contributes zero to the state
	// hash before and after the allocation.
	m.zeroLive(base, words)
	m.markDirtyRange(base, words)
	return b
}

// Free retires the block based at base and returns it. The block's current
// word values remain readable through Peek for hash-erasure purposes,
// but the block no longer belongs to the traversed state. Freeing a static
// block or an address that is not a live block base panics.
func (m *Memory) Free(base uint64) *Block {
	b := m.blocks[base]
	if b == nil || !b.Live {
		panic(fmt.Sprintf("mem: free of %#x which is not a live block", base))
	}
	if b.Static {
		panic(fmt.Sprintf("mem: free of static block %q at %#x", b.Site, base))
	}
	b.Live = false
	m.retireOrder(b)
	if m.cacheBlock == b {
		m.cacheBlock = &noBlock
	}
	if m.fastLen > 0 && b.Contains(m.fastBase) {
		// The fast window aliased the freed block: drop it so later
		// accesses re-validate liveness through the slow path.
		m.fastLen = 0
		m.fastWin = nil
	}
	m.clearOwners(b)
	// The freed words leave the hashed state: their pages' contributions
	// change (to zero, for pages the block covered fully), so the delta
	// sweep must revisit them.
	m.markDirtyRange(b.Base, b.Words)
	m.liveWords -= b.Words
	return b
}

// Load returns the word at addr. Loading outside any live block panics:
// it is either a use-after-free or a wild read in the workload kernel.
// The fast-window hit path inlines into the caller.
func (m *Memory) Load(addr uint64) uint64 {
	off := addr - m.fastBase
	if off < m.fastLen && addr&7 == 0 {
		return *(*uint64)(unsafe.Add(m.fastWin, off))
	}
	return m.loadSlow(addr)
}

// LoadFast is the window-hit-only form of Load: it returns the word and
// true on a fast-window hit, and (0, false) otherwise without touching the
// slow path. Unlike Load it fits the compiler's inline budget, so hot
// instrumentation wrappers use it as a first probe and fall back to Load.
func (m *Memory) LoadFast(addr uint64) (uint64, bool) {
	off := addr - m.fastBase
	if off < m.fastLen && addr&7 == 0 {
		return *(*uint64)(unsafe.Add(m.fastWin, off)), true
	}
	return 0, false
}

func (m *Memory) loadSlow(addr uint64) uint64 {
	m.fastLoadMiss++
	m.checkLive(addr, "load")
	v := m.loadRaw(addr)
	if m.cachePage != nil && addr-m.cachePageBase < pageBytes {
		m.setFastWindow(m.cacheBlock, addr/pageBytes, m.cachePage)
	}
	return v
}

// Store writes value at addr and returns the previous value — the Data_old
// the MHM reads from the L1 line before the update (§3.1). Storing outside
// any live block panics. Like Load, the fast-window hit path inlines.
func (m *Memory) Store(addr, value uint64) (old uint64) {
	off := addr - m.fastBase
	if off < m.fastLen && addr&7 == 0 {
		p := (*uint64)(unsafe.Add(m.fastWin, off))
		old = *p
		*p = value
		*m.fastDirty |= m.fastDirtyMask
		return old
	}
	return m.storeSlow(addr, value)
}

// StoreFast is the window-hit-only form of Store: on a fast-window hit it
// performs the store and returns (old, true); otherwise it does nothing and
// returns (0, false). Like LoadFast it exists to inline into per-access
// instrumentation.
func (m *Memory) StoreFast(addr, value uint64) (old uint64, ok bool) {
	off := addr - m.fastBase
	if off < m.fastLen && addr&7 == 0 {
		p := (*uint64)(unsafe.Add(m.fastWin, off))
		old = *p
		*p = value
		*m.fastDirty |= m.fastDirtyMask
		return old, true
	}
	return 0, false
}

func (m *Memory) storeSlow(addr, value uint64) (old uint64) {
	m.fastStoreMiss++
	m.checkLive(addr, "store")
	p := m.pageForStore(addr)
	i := (addr % pageBytes) / WordSize
	old = p[i]
	p[i] = value
	pn := addr / pageBytes
	m.markDirty(pn)
	m.setFastWindow(m.cacheBlock, pn, p)
	return old
}

// setFastWindow points the fast window at the intersection of block b
// (which checkLive just resolved into the block cache) and the materialized
// page pn backed by p.
func (m *Memory) setFastWindow(b *Block, pn uint64, p *page) {
	if b == nil || b == &noBlock {
		return
	}
	start := pn * pageBytes
	end := start + pageBytes
	if b.Base > start {
		start = b.Base
	}
	if be := b.End(); be < end {
		end = be
	}
	m.fastBase = start
	m.fastLen = end - start
	m.fastWin = unsafe.Pointer(&p[(start%pageBytes)/WordSize])
	lf := m.leafAt(pn) // non-nil: p is materialized, so its leaf exists
	m.fastDirty = &lf.dirty[(pn&leafMask)>>6]
	m.fastDirtyMask = 1 << (pn & 63)
}

// Peek reads a word without liveness checking (for snapshots and the
// hash-erasure path on free).
func (m *Memory) Peek(addr uint64) uint64 { return m.loadRaw(addr) }

// BlockAt returns the live block containing addr, or nil.
func (m *Memory) BlockAt(addr uint64) *Block {
	if b := m.cacheBlock; addr-b.Base < uint64(b.Words)*WordSize {
		return b
	}
	return m.blockAtSlow(addr)
}

// blockAtSlow resolves addr when the last-block cache misses: first through
// the page-owner metadata (O(1) for interior pages of large blocks), then by
// binary search over the sorted block table.
func (m *Memory) blockAtSlow(addr uint64) *Block {
	pn := addr / pageBytes
	if lf := m.leafAt(pn); lf != nil {
		if b := lf.owner[pn&leafMask]; b != nil {
			m.cacheBlock = b
			return b
		}
	}
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i].Base > addr })
	// Walk left past tombstones: live blocks never overlap any retained
	// block, so the nearest live predecessor is the only candidate.
	for i > 0 {
		b := m.order[i-1]
		if b.Live {
			if b.Contains(addr) {
				m.cacheBlock = b
				return b
			}
			return nil
		}
		if b.Contains(addr) {
			return nil // inside a freed block: dead for sure
		}
		i--
	}
	return nil
}

// BlockByBase returns the block (live or freed) whose base is exactly base,
// or nil. Freed blocks are retained for state-diff attribution.
func (m *Memory) BlockByBase(base uint64) *Block { return m.blocks[base] }

// LiveWords returns the number of words in the hashed state (static + live
// heap) — the quantity SW-InstantCheck_Tr sweeps at each checkpoint.
func (m *Memory) LiveWords() int { return m.liveWords }

// StaticWords returns the size of the static segment in words.
func (m *Memory) StaticWords() int { return m.staticWords }

// FastPathStats returns the slow-path resolution counts: loads and stores
// that missed the fast window. Together with the caller's total access
// counts these yield the fast-window hit rate; the fast path itself does
// no counting (see the field comments).
func (m *Memory) FastPathStats() (loadMisses, storeMisses uint64) {
	return m.fastLoadMiss, m.fastStoreMiss
}

// TraverseRuns visits every word of the hashed state (static segment plus
// live heap blocks) in ascending address order as maximal per-page runs: fn
// is called with the address of the first word of the run and a slice
// aliasing the backing page (or the shared all-zero run for words whose page
// was never materialized — see IsZeroRun). The callback must treat words as
// read-only and must not retain it past the call when it may later mutate
// memory; runs never cross a page boundary or a block boundary.
func (m *Memory) TraverseRuns(fn func(base uint64, words []uint64, kind Kind)) {
	for _, b := range m.order {
		if !b.Live {
			continue
		}
		addr := b.Base
		end := b.End()
		for addr < end {
			pn := addr / pageBytes
			chunkEnd := (pn + 1) * pageBytes
			if chunkEnd > end {
				chunkEnd = end
			}
			n := (chunkEnd - addr) / WordSize
			var p *page
			if lf := m.leafAt(pn); lf != nil {
				p = lf.pages[pn&leafMask]
			}
			if p == nil {
				fn(addr, zeroRun[:n], b.Kind)
			} else {
				lo := (addr % pageBytes) / WordSize
				fn(addr, p[lo:lo+n], b.Kind)
			}
			addr = chunkEnd
		}
	}
}

// TraverseBlocks visits every live block in ascending address order.
func (m *Memory) TraverseBlocks(fn func(b *Block)) {
	for _, b := range m.order {
		if b.Live {
			fn(b)
		}
	}
}

// Snapshot captures the full hashed state for the state-diff tool: a copy
// of every live word plus the block table. The paper's prototype does the
// same when re-executing the two differing runs (§2.3).
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		Addrs: make([]uint64, 0, m.liveWords),
		Vals:  make([]uint64, 0, m.liveWords),
	}
	m.TraverseBlocks(func(b *Block) {
		copied := *b
		s.Blocks = append(s.Blocks, &copied)
	})
	m.TraverseRuns(func(base uint64, words []uint64, _ Kind) {
		for i, v := range words {
			s.Addrs = append(s.Addrs, base+uint64(i)*WordSize)
			s.Vals = append(s.Vals, v)
		}
	})
	return s
}

// Snapshot is a point-in-time copy of the hashed state. Words are stored as
// sorted parallel slices (ascending Addrs, matching Vals) rather than a map,
// so capture is a linear copy and comparison is a linear merge.
type Snapshot struct {
	// Blocks lists the live blocks in ascending base order.
	Blocks []*Block
	// Addrs holds the addresses of every live word, ascending.
	Addrs []uint64
	// Vals holds the word values, parallel to Addrs.
	Vals []uint64
}

// NewSnapshot builds a snapshot from a block list and an address->value map,
// the pre-slice representation. It exists for tests and tools that assemble
// snapshots by hand.
func NewSnapshot(blocks []*Block, words map[uint64]uint64) *Snapshot {
	s := &Snapshot{Blocks: blocks, Addrs: make([]uint64, 0, len(words))}
	for addr := range words {
		s.Addrs = append(s.Addrs, addr)
	}
	sort.Slice(s.Addrs, func(i, j int) bool { return s.Addrs[i] < s.Addrs[j] })
	s.Vals = make([]uint64, len(s.Addrs))
	for i, addr := range s.Addrs {
		s.Vals[i] = words[addr]
	}
	return s
}

// Len returns the number of words in the snapshot.
func (s *Snapshot) Len() int { return len(s.Addrs) }

// Word returns the value at addr and whether addr is part of the snapshot —
// the compatibility accessor for the former map representation.
func (s *Snapshot) Word(addr uint64) (uint64, bool) {
	lo, hi := 0, len(s.Addrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Addrs[mid] < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Addrs) && s.Addrs[lo] == addr {
		return s.Vals[lo], true
	}
	return 0, false
}

// BlockAt returns the snapshot block containing addr, or nil.
func (s *Snapshot) BlockAt(addr uint64) *Block {
	i := sort.Search(len(s.Blocks), func(i int) bool { return s.Blocks[i].Base > addr })
	if i == 0 {
		return nil
	}
	b := s.Blocks[i-1]
	if b.Contains(addr) {
		return b
	}
	return nil
}

// insertBlock links b into the block map and the sorted order slice. The
// bump allocator almost always appends at the end; replayed placements over
// a freed base revive the tombstone in place; only genuinely out-of-order
// placements (rare) pay the O(n) insert shift.
func (m *Memory) insertBlock(b *Block) {
	m.blocks[b.Base] = b
	n := len(m.order)
	if n == 0 || m.order[n-1].Base < b.Base {
		m.order = append(m.order, b)
		m.setOwners(b)
		return
	}
	i := sort.Search(n, func(i int) bool { return m.order[i].Base >= b.Base })
	if i < n && m.order[i].Base == b.Base {
		// The slot holds the tombstone of a freed block at the same base
		// (the caller already rejected double placement over a live one).
		if m.dead > 0 {
			m.dead--
		}
		m.order[i] = b
		m.setOwners(b)
		return
	}
	m.order = append(m.order, nil)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = b
	m.setOwners(b)
}

// retireOrder tombstones a freed block in the order slice and compacts the
// slice once tombstones dominate, batching what used to be a per-free O(n)
// shift into an amortized O(1) mark.
func (m *Memory) retireOrder(b *Block) {
	m.dead++
	if m.dead < 32 || m.dead*2 < len(m.order) {
		return
	}
	live := m.order[:0]
	for _, blk := range m.order {
		if blk.Live {
			live = append(live, blk)
		}
	}
	// Drop the trailing pointers so freed blocks become collectable once
	// the blocks map no longer needs them.
	for i := len(live); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = live
	m.dead = 0
}

// setOwners records b as the owner of every page it fully covers, making
// liveness lookups on those pages O(1).
func (m *Memory) setOwners(b *Block) {
	first := (b.Base + pageBytes - 1) / pageBytes
	last := b.End() / pageBytes // one past the last fully covered page
	for pn := first; pn < last; pn++ {
		m.leafFor(pn).owner[pn&leafMask] = b
	}
}

// clearOwners removes b's page-owner entries on free.
func (m *Memory) clearOwners(b *Block) {
	first := (b.Base + pageBytes - 1) / pageBytes
	last := b.End() / pageBytes
	for pn := first; pn < last; pn++ {
		if lf := m.leafAt(pn); lf != nil {
			lf.owner[pn&leafMask] = nil
		}
	}
}

// markDirty sets the dirty bit of page pn. The page's leaf must exist
// (callers mark pages they have just materialized or resolved).
func (m *Memory) markDirty(pn uint64) {
	lf := m.dir[pn>>leafBits]
	lf.dirty[(pn&leafMask)>>6] |= 1 << (pn & 63)
}

// markDirtyRange marks every page overlapping [base, base+words*WordSize)
// whose directory leaf exists. Pages under a missing leaf were never stored
// to: every word there reads zero, so the page's state-hash contribution is
// zero both before and after the block-table change being recorded, and the
// delta sweep can skip it — the bitmap analogue of zero-fill elision.
func (m *Memory) markDirtyRange(base uint64, words int) {
	first := base / pageBytes
	last := (base + uint64(words)*WordSize - 1) / pageBytes
	for pn := first; pn <= last; pn++ {
		if lf := m.leafAt(pn); lf != nil {
			lf.dirty[(pn&leafMask)>>6] |= 1 << (pn & 63)
		}
	}
}

// DirtyPageCount returns the number of pages currently marked dirty.
func (m *Memory) DirtyPageCount() int {
	n := 0
	for _, lf := range m.dir {
		if lf == nil {
			continue
		}
		for _, w := range lf.dirty {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// ClearDirty resets the dirty bitmap. A delta-hashing checkpoint calls it
// after folding the dirty pages' new contributions into its cache.
func (m *Memory) ClearDirty() {
	for _, lf := range m.dir {
		if lf != nil {
			lf.dirty = [leafSize / 64]uint64{}
		}
	}
}

// TraverseDirtyRuns visits every dirty page in ascending page-number order.
// For each dirty page it calls page(pn) once, then run(base, words, kind)
// for every maximal live run on that page — zero calls when the page no
// longer holds live words (its whole extent was freed), which tells delta
// hashers the page's contribution is now zero. Run slices follow the
// TraverseRuns contract: read-only, never crossing a page or block boundary,
// and the shared all-zero run (IsZeroRun) for unmaterialized backing.
func (m *Memory) TraverseDirtyRuns(page func(pn uint64), run func(base uint64, words []uint64, kind Kind)) {
	for di, lf := range m.dir {
		if lf == nil {
			continue
		}
		for wi, w := range lf.dirty {
			for w != 0 {
				bit := uint64(bits.TrailingZeros64(w))
				w &= w - 1
				pn := uint64(di)<<leafBits | uint64(wi)<<6 | bit
				page(pn)
				m.dirtyPageRuns(lf, pn, run)
			}
		}
	}
}

// dirtyPageRuns emits the live runs of one page. The common case — a single
// live block covering the whole page — resolves through the page-owner
// metadata; partial pages fall back to a bounded scan of the block table
// around the page extent.
func (m *Memory) dirtyPageRuns(lf *leaf, pn uint64, run func(base uint64, words []uint64, kind Kind)) {
	pageStart := pn * pageBytes
	pageEnd := pageStart + pageBytes
	p := lf.pages[pn&leafMask]
	if b := lf.owner[pn&leafMask]; b != nil && b.Live {
		if p == nil {
			run(pageStart, zeroRun[:pageWords], b.Kind)
		} else {
			run(pageStart, p[:pageWords:pageWords], b.Kind)
		}
		return
	}
	// No full-page owner: find the blocks overlapping the page. Live blocks
	// never overlap retained tombstones, so walking left stops at the first
	// block (live or dead) that ends at or before the page start.
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i].Base >= pageEnd })
	start := i
	for start > 0 && m.order[start-1].End() > pageStart {
		start--
	}
	for ; start < i; start++ {
		b := m.order[start]
		if !b.Live || b.End() <= pageStart || b.Base >= pageEnd {
			continue
		}
		lo, hi := b.Base, b.End()
		if lo < pageStart {
			lo = pageStart
		}
		if hi > pageEnd {
			hi = pageEnd
		}
		n := (hi - lo) / WordSize
		if p == nil {
			run(lo, zeroRun[:n], b.Kind)
		} else {
			w := (lo % pageBytes) / WordSize
			run(lo, p[w:w+n:w+n], b.Kind)
		}
	}
}

func (m *Memory) checkLive(addr uint64, op string) {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("mem: misaligned %s at %#x", op, addr))
	}
	if m.BlockAt(addr) == nil {
		panic(fmt.Sprintf("mem: %s at %#x outside any live block (use-after-free or wild access)", op, addr))
	}
}

// leafAt returns the directory leaf covering page pn, or nil.
func (m *Memory) leafAt(pn uint64) *leaf {
	di := pn >> leafBits
	if di >= uint64(len(m.dir)) {
		return nil
	}
	return m.dir[di]
}

// leafFor returns the directory leaf covering page pn, growing the root and
// materializing the leaf as needed.
func (m *Memory) leafFor(pn uint64) *leaf {
	di := pn >> leafBits
	for di >= uint64(len(m.dir)) {
		m.dir = append(m.dir, nil)
	}
	lf := m.dir[di]
	if lf == nil {
		lf = new(leaf)
		m.dir[di] = lf
	}
	return lf
}

func (m *Memory) loadRaw(addr uint64) uint64 {
	if off := addr - m.cachePageBase; off < pageBytes && m.cachePage != nil {
		return m.cachePage[off/WordSize]
	}
	pn := addr / pageBytes
	lf := m.leafAt(pn)
	if lf == nil {
		return 0
	}
	p := lf.pages[pn&leafMask]
	if p == nil {
		return 0
	}
	m.cachePage = p
	m.cachePageBase = pn * pageBytes
	return p[(addr%pageBytes)/WordSize]
}

// pageForStore returns the materialized page backing addr, creating it (and
// its leaf) on first touch.
func (m *Memory) pageForStore(addr uint64) *page {
	if off := addr - m.cachePageBase; off < pageBytes && m.cachePage != nil {
		return m.cachePage
	}
	pn := addr / pageBytes
	lf := m.leafFor(pn)
	p := lf.pages[pn&leafMask]
	if p == nil {
		p = new(page)
		lf.pages[pn&leafMask] = p
	}
	m.cachePage = p
	m.cachePageBase = pn * pageBytes
	return p
}

// zeroLive clears [base, base+words*WordSize) on materialized pages only:
// pages never stored to already read as zero, so a fresh bump allocation
// skips the fill entirely and only re-placements over dirtied memory pay for
// the words they actually reuse.
func (m *Memory) zeroLive(base uint64, words int) {
	addr := base
	end := base + uint64(words)*WordSize
	for addr < end {
		pn := addr / pageBytes
		chunkEnd := (pn + 1) * pageBytes
		if chunkEnd > end {
			chunkEnd = end
		}
		var p *page
		if lf := m.leafAt(pn); lf != nil {
			p = lf.pages[pn&leafMask]
		}
		if p != nil {
			lo := (addr % pageBytes) / WordSize
			hi := lo + (chunkEnd-addr)/WordSize
			clear(p[lo:hi])
		}
		addr = chunkEnd
	}
}

func roundUpWords(words int) uint64 {
	// Round block footprints to 16 words so distinct sites never collide
	// and replayed addresses stay stable when sizes wobble slightly.
	const chunk = 16
	w := (words + chunk - 1) / chunk * chunk
	return uint64(w) * WordSize
}
