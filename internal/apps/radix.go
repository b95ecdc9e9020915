package apps

import (
	"instantcheck/internal/core"
	"instantcheck/internal/mem"
	"instantcheck/internal/sim"
)

func init() {
	register(&App{
		Name:          "radix",
		Source:        "splash2",
		UsesFP:        false,
		ExpectedClass: core.ClassBitDeterministic,
		HostsBug:      BugOrder,
		Build: func(o Options) sim.Program {
			p := &radixProg{nt: o.threads(), n: 2048, bug: o.Bug == BugOrder}
			if o.Small {
				p.n = 256
			}
			return p
		},
	})
}

const (
	radixDigitBits = 6
	radixBuckets   = 1 << radixDigitBits
	radixPasses    = 3 // 18-bit keys
)

// radixProg reproduces SPLASH-2's radix: a parallel radix sort. Each pass
// builds per-thread digit histograms, thread 0 turns them into global rank
// bases, and every thread scatters its input span to destination positions
// derived from those bases. Destinations are a bijection, so the sort is
// bit-by-bit deterministic (Table 1: 12 dynamic points — an initial
// barrier, three barriers per pass, a final verification barrier, and the
// end of the run).
//
// The rank phase is ordered before the permutation by a hand-coded ready
// flag. The seeded order-violation bug of Figure 7(c) makes thread 0 raise
// that flag exactly once too early (in the last pass, before computing the
// rank bases instead of after): a thread released by the premature flag
// can read rank bases that thread 0 has not finished writing and scatter
// keys to stale positions. Every schedule exposes it, unlike the rare
// real order violations the paper targets: after the early flag, thread 0
// makes about 1,000 memory operations (a store and a load for each of the
// 64 × 8 rank bases at 8 threads) against a mean preemption interval of
// about 8 (EXPERIMENTS.md, "Reproduction limitations"). The program never
// crashes, but each run's final array is wrong in a schedule-dependent way.
type radixProg struct {
	nt  int
	n   int
	bug bool

	src, dst  uint64 // ping-pong key arrays
	hist      uint64 // nt × buckets per-thread histograms
	rankBase  uint64 // nt × buckets scatter bases
	rankReady uint64 // per-pass ready flags (hand-coded sync)
	checksum  uint64

	start, histDone, permDone, clearDone, final barrier
}

func (p *radixProg) Name() string { return "radix" }

func (p *radixProg) Threads() int { return p.nt }

func (p *radixProg) Setup(t *sim.Thread) {
	p.src = t.AllocStatic("static:radix.a", p.n, mem.KindWord)
	p.dst = t.AllocStatic("static:radix.b", p.n, mem.KindWord)
	p.hist = t.AllocStatic("static:radix.hist", p.nt*radixBuckets, mem.KindWord)
	p.rankBase = t.AllocStatic("static:radix.rank", p.nt*radixBuckets, mem.KindWord)
	p.rankReady = t.AllocStatic("static:radix.ready", radixPasses, mem.KindWord)
	p.checksum = t.AllocStatic("static:radix.sum", 1, mem.KindWord)
	rng := newXorshift(99)
	for i := 0; i < p.n; i++ {
		t.Store(idx(p.src, i), rng.next()&(1<<(radixDigitBits*radixPasses)-1))
	}
	p.start = newBarrier(t, "radix.start")
	p.histDone = newBarrier(t, "radix.hist")
	p.permDone = newBarrier(t, "radix.perm")
	p.clearDone = newBarrier(t, "radix.clear")
	p.final = newBarrier(t, "radix.final")
}

func (p *radixProg) Worker(t *sim.Thread) {
	tid := t.TID()
	lo, hi := span(p.n, p.nt, tid)
	src, dst := p.src, p.dst

	p.start.await(t)

	for pass := 0; pass < radixPasses; pass++ {
		shift := pass * radixDigitBits

		// Phase 1: per-thread histogram of my span.
		for i := lo; i < hi; i++ {
			d := int(t.Load(idx(src, i))>>shift) & (radixBuckets - 1)
			c := t.Load(idx(p.hist, tid*radixBuckets+d))
			t.Compute(16) // digit extraction + index arithmetic
			t.Store(idx(p.hist, tid*radixBuckets+d), c+1)
		}
		p.histDone.await(t)

		// Phase 2: thread 0 computes global rank bases — the destination
		// start for each (thread, digit) — then raises the ready flag.
		if tid == 0 {
			if p.bug && pass == radixPasses-1 {
				// Order violation (Figure 7c): the flag goes up before
				// the bases it is supposed to order are written. Any
				// thread scheduled inside the rank phase below reads
				// whatever bases are in memory at that instant.
				//icvet:ignore race deliberately seeded bug: ready raised before the rank bases are produced
				t.Store(idx(p.rankReady, pass), 1)
			}
			base := uint64(0)
			for d := 0; d < radixBuckets; d++ {
				for th := 0; th < p.nt; th++ {
					t.Store(idx(p.rankBase, th*radixBuckets+d), base)
					base += t.Load(idx(p.hist, th*radixBuckets+d))
				}
			}
			if !(p.bug && pass == radixPasses-1) {
				t.Store(idx(p.rankReady, pass), 1)
			}
		}
		spinWaitFlag(t, idx(p.rankReady, pass))

		// Phase 3: scatter my span using my rank bases.
		var next [radixBuckets]uint64
		for d := 0; d < radixBuckets; d++ {
			//icvet:ignore race ordered by the rankReady flag protocol above (the Figure 7c bug deliberately skips it)
			next[d] = t.Load(idx(p.rankBase, tid*radixBuckets+d))
		}
		for i := lo; i < hi; i++ {
			k := t.Load(idx(src, i))
			d := int(k>>shift) & (radixBuckets - 1)
			pos := next[d] % uint64(p.n) // stays in bounds even with stale bases
			next[d]++
			t.Compute(24) // digit extraction + rank bookkeeping
			//icvet:ignore race the global rank bases partition dst: each (thread, digit) scatters into its own disjoint slot range
			t.Store(idx(dst, int(pos)), k)
		}
		p.permDone.await(t)

		// Phase 4: clear my histogram row for the next pass.
		for d := 0; d < radixBuckets; d++ {
			t.Store(idx(p.hist, tid*radixBuckets+d), 0)
		}
		p.clearDone.await(t)

		src, dst = dst, src
	}

	// Final verification: thread 0 folds the sorted array into a checksum.
	if tid == 0 {
		sum := uint64(0)
		for i := 0; i < p.n; i++ {
			sum = sum*31 + t.Load(idx(src, i))
		}
		t.Store(p.checksum, sum)
	}
	p.final.await(t)
}
