package racefilter

// The epoch detector: FastTrack-style happens-before race detection with
// O(1) same-epoch fast paths over the shadow-page directory.
//
// A thread's epoch is its own vector-clock component paired with its slot,
// packed into one uint64. Per address, the shadow word keeps the packed
// epoch (and source pc) of the last write plus a small read set of packed
// epochs — one entry per reader slot, exactly the information the
// vector-clock reference keeps in its per-address maps, but flat. The
// expensive representation (full vector clocks) survives only where HB
// joins actually happen: thread clocks, lock release clocks, and barrier
// episodes.
//
// Fast paths (no pc lookup, no map access, no allocation):
//
//   - a read whose slot already has a read entry at the current epoch is a
//     repeat of an access already processed — every race predicate it
//     could trigger is monotonically false once checked (vector clocks
//     only grow), and report dedup is first-wins, so skipping is
//     behavior-preserving;
//   - a write whose shadow write epoch equals the current epoch *and*
//     whose read set is empty is likewise a no-op repeat. The reads-empty
//     condition is essential: an interleaved cross-thread read must be
//     checked (and cleared) by the next write, or a read-write race would
//     be missed.
//
// Everything else — the first access of an epoch, and any access that can
// actually race — takes the slow path, which pulls the source pc from the
// reporting thread (sim.Thread.PC) for attribution. The pc recorded for
// an epoch is the first access of that (thread, epoch); repeat accesses
// in the same epoch are skipped before any pc lookup. Keeping attribution at
// epoch granularity matters: an entry that survived a synchronization
// boundary with a stale pc could attribute a race to a lock-protected
// access from before the sync, which the static cross-check would
// correctly reject.

import (
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

const (
	epochSlotShift = 56
	epochClockMask = (uint64(1) << epochSlotShift) - 1
)

// MaxThreads bounds the worker count so a slot always fits the packed
// epoch's high byte (slots are 0..nt, with nt the init slot).
const MaxThreads = 254

func packEpoch(slot int, clock uint64) uint64 {
	return uint64(slot)<<epochSlotShift | clock
}

func epochSlot(e uint64) int { return int(e >> epochSlotShift) }

func epochClock(e uint64) uint64 { return e & epochClockMask }

// pcer supplies the source pc of the access being processed. sim.Thread
// implements it with the site its accessor recorded; the differential
// fuzzer feeds synthetic pcs through it.
type pcer interface{ PC() uintptr }

// Detector is the epoch-based happens-before race detector implementing
// sim.EventListener — the detection-run engine §6.1's benign-race
// filtering piggybacks on. Attach it via sim.Config.Events.
type Detector struct {
	nt int
	// vc[s] is slot s's vector clock; epochs[s] caches packEpoch(s,
	// vc[s][s]) so the access fast paths compare one uint64.
	vc      [][]uint64
	epochs  []uint64
	locks   map[*sched.Mutex][]uint64
	shadow  shadowDir
	races   raceSet
	started bool
	stats   DetectorStats
}

// DetectorStats counts the epoch detector's fast/slow path traffic; the
// detector benchmarks assert the fast paths dominate.
type DetectorStats struct {
	// ReadFast / WriteFast count same-epoch accesses short-circuited
	// without a pc lookup; ReadSlow / WriteSlow count first-of-epoch or
	// potentially racing accesses that ran the full HB checks.
	ReadFast, ReadSlow   uint64
	WriteFast, WriteSlow uint64
	// ReadSpills counts shadow words whose read set outgrew the inline
	// entries and inflated to a map.
	ReadSpills uint64
	// ShadowPages is the number of shadow pages allocated.
	ShadowPages uint64
}

// NewDetector returns an epoch detector for nt worker threads (plus the
// init thread).
func NewDetector(nt int) *Detector {
	if nt > MaxThreads {
		panic("racefilter: epoch detector supports at most 254 worker threads")
	}
	d := &Detector{
		nt:    nt,
		locks: make(map[*sched.Mutex][]uint64),
		races: newRaceSet(),
	}
	d.vc = make([][]uint64, nt+1)
	d.epochs = make([]uint64, nt+1)
	for i := range d.vc {
		d.vc[i] = make([]uint64, nt+1)
		d.vc[i][i] = 1
		d.epochs[i] = packEpoch(i, 1)
	}
	return d
}

// slot maps a thread id (init = -1) to its vector-clock index.
func (d *Detector) slot(tid int) int {
	if tid < 0 {
		return d.nt
	}
	return tid
}

// begin applies the program-start edge: Setup happens-before every worker.
func (d *Detector) begin(tid int) {
	if d.started || tid < 0 {
		return
	}
	d.started = true
	init := d.vc[d.nt]
	for t := 0; t < d.nt; t++ {
		join(d.vc[t], init)
		d.epochs[t] = packEpoch(t, d.vc[t][t])
	}
}

// OnRead implements sim.EventListener.
func (d *Detector) OnRead(t *sim.Thread, addr uint64) { d.read(t.TID(), addr, t) }

// OnWrite implements sim.EventListener.
func (d *Detector) OnWrite(t *sim.Thread, addr uint64) { d.write(t.TID(), addr, t) }

func (d *Detector) read(tid int, addr uint64, pc pcer) {
	d.begin(tid)
	s := d.slot(tid)
	e := d.epochs[s]
	w := d.shadow.word(addr)
	if w.reads[0].epoch == e || w.reads[1].epoch == e {
		d.stats.ReadFast++
		return
	}
	if w.spill != nil {
		if re, ok := w.spill[s]; ok && re.epoch == e {
			d.stats.ReadFast++
			return
		}
	}
	d.readSlow(s, addr, w, e, pc)
}

func (d *Detector) readSlow(s int, addr uint64, w *shadowWord, e uint64, pc pcer) {
	d.stats.ReadSlow++
	p := pc.PC()
	if w.write != 0 {
		if ws := epochSlot(w.write); ws != s && epochClock(w.write) > d.vc[s][ws] {
			d.races.report(addr, WriteRead, ws, s, w.writePC, p)
		}
	}
	ne := readEntry{epoch: e, pc: p}
	if w.spill != nil {
		w.spill[s] = ne
		return
	}
	for i := range w.reads {
		if w.reads[i].epoch != 0 && epochSlot(w.reads[i].epoch) == s {
			w.reads[i] = ne
			return
		}
	}
	for i := range w.reads {
		if w.reads[i].epoch == 0 {
			w.reads[i] = ne
			return
		}
	}
	// A third concurrent reader: inflate this word's read set to a map.
	d.stats.ReadSpills++
	w.spill = make(map[int]readEntry, 4)
	w.spill[epochSlot(w.reads[0].epoch)] = w.reads[0]
	w.spill[epochSlot(w.reads[1].epoch)] = w.reads[1]
	w.spill[s] = ne
	w.reads[0], w.reads[1] = readEntry{}, readEntry{}
}

func (d *Detector) write(tid int, addr uint64, pc pcer) {
	d.begin(tid)
	s := d.slot(tid)
	e := d.epochs[s]
	w := d.shadow.word(addr)
	if w.write == e && w.reads[0].epoch == 0 && w.reads[1].epoch == 0 && w.spill == nil {
		d.stats.WriteFast++
		return
	}
	d.writeSlow(s, addr, w, e, pc)
}

func (d *Detector) writeSlow(s int, addr uint64, w *shadowWord, e uint64, pc pcer) {
	d.stats.WriteSlow++
	p := pc.PC()
	if w.write != 0 {
		if ws := epochSlot(w.write); ws != s && epochClock(w.write) > d.vc[s][ws] {
			d.races.report(addr, WriteWrite, ws, s, w.writePC, p)
		}
	}
	// Read-write races, readers visited in ascending slot order (the
	// canonical report order both detector implementations share).
	if w.spill != nil {
		for rt := 0; rt <= d.nt; rt++ {
			if re, ok := w.spill[rt]; ok && rt != s && epochClock(re.epoch) > d.vc[s][rt] {
				d.races.report(addr, ReadWrite, rt, s, re.pc, p)
			}
		}
	} else {
		e0, e1 := w.reads[0], w.reads[1]
		if e0.epoch != 0 && e1.epoch != 0 && epochSlot(e0.epoch) > epochSlot(e1.epoch) {
			e0, e1 = e1, e0
		}
		for _, re := range [2]readEntry{e0, e1} {
			if re.epoch == 0 {
				continue
			}
			if rt := epochSlot(re.epoch); rt != s && epochClock(re.epoch) > d.vc[s][rt] {
				d.races.report(addr, ReadWrite, rt, s, re.pc, p)
			}
		}
	}
	if w.write != e {
		w.write = e
		w.writePC = p
	}
	w.reads[0], w.reads[1] = readEntry{}, readEntry{}
	w.spill = nil
}

// OnAcquire implements sim.EventListener: acquiring a lock joins the
// lock's release clock into the thread.
func (d *Detector) OnAcquire(tid int, mu *sched.Mutex) {
	d.begin(tid)
	s := d.slot(tid)
	if lv := d.locks[mu]; lv != nil {
		join(d.vc[s], lv)
		d.epochs[s] = packEpoch(s, d.vc[s][s])
	}
}

// OnRelease implements sim.EventListener: releasing publishes the thread's
// clock on the lock and advances the thread's epoch.
func (d *Detector) OnRelease(tid int, mu *sched.Mutex) {
	d.begin(tid)
	s := d.slot(tid)
	lv := d.locks[mu]
	if lv == nil {
		lv = make([]uint64, d.nt+1)
		d.locks[mu] = lv
	}
	copy(lv, d.vc[s])
	d.vc[s][s]++
	d.epochs[s] = packEpoch(s, d.vc[s][s])
}

// OnBarrier implements sim.EventListener: a barrier episode totally orders
// all threads — everyone joins everyone and advances.
func (d *Detector) OnBarrier(ordinal int) {
	var all []uint64
	for t := 0; t < d.nt; t++ {
		if all == nil {
			all = append([]uint64(nil), d.vc[t]...)
		} else {
			join(all, d.vc[t])
		}
	}
	for t := 0; t < d.nt; t++ {
		join(d.vc[t], all)
		d.vc[t][t]++
		d.epochs[t] = packEpoch(t, d.vc[t][t])
	}
}

// Races returns the detected races sorted by address then kind.
func (d *Detector) Races() []Race { return d.races.sorted() }

// Stats returns the fast/slow path counters accumulated so far.
func (d *Detector) Stats() DetectorStats {
	st := d.stats
	st.ShadowPages = d.shadow.pages
	return st
}
