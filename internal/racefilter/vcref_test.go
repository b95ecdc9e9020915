package racefilter

// VCDetector is the vector-clock reference detector: the map-per-address
// happens-before detector the epoch detector replaced. Every access pays
// the per-address map lookup and pulls its pc, and every race predicate is
// re-evaluated on repeats (harmless: the predicates are monotonically
// false once checked, and reports dedup first-wins). It implements the
// same canonical observable semantics as the epoch detector:
// first-access-of-epoch pc attribution and readers visited in ascending
// slot order. FuzzEpochEqualsVectorClock and TestEpochEqualsVectorClockOnApps
// pin the two implementations observationally identical.

import (
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// vcEpoch is a (thread, clock) pair carrying the source pc of the first
// access in that epoch.
type vcEpoch struct {
	tid   int
	clock uint64
	pc    uintptr
}

// addrState is the per-address metadata of the reference detector.
type addrState struct {
	write vcEpoch
	reads map[int]vcEpoch // reader slot -> last read epoch
}

// VCDetector implements sim.EventListener; attach it via
// sim.Config.Events.
type VCDetector struct {
	nt      int
	vc      [][]uint64
	locks   map[*sched.Mutex][]uint64
	addrs   map[uint64]*addrState
	races   raceSet
	started bool
}

// NewVCDetector returns a reference detector for nt worker threads (plus
// the init thread).
func NewVCDetector(nt int) *VCDetector {
	d := &VCDetector{
		nt:    nt,
		locks: make(map[*sched.Mutex][]uint64),
		addrs: make(map[uint64]*addrState),
		races: newRaceSet(),
	}
	d.vc = make([][]uint64, nt+1)
	for i := range d.vc {
		d.vc[i] = make([]uint64, nt+1)
		d.vc[i][i] = 1
	}
	return d
}

func (d *VCDetector) slot(tid int) int {
	if tid < 0 {
		return d.nt
	}
	return tid
}

// begin applies the program-start edge: Setup happens-before every worker.
func (d *VCDetector) begin(tid int) {
	if d.started || tid < 0 {
		return
	}
	d.started = true
	init := d.vc[d.nt]
	for t := 0; t < d.nt; t++ {
		join(d.vc[t], init)
	}
}

// OnRead implements sim.EventListener.
func (d *VCDetector) OnRead(t *sim.Thread, addr uint64) { d.read(t.TID(), addr, t) }

// OnWrite implements sim.EventListener.
func (d *VCDetector) OnWrite(t *sim.Thread, addr uint64) { d.write(t.TID(), addr, t) }

func (d *VCDetector) read(tid int, addr uint64, pc pcer) {
	d.begin(tid)
	s := d.slot(tid)
	p := pc.PC()
	st := d.state(addr)
	if st.write.clock > 0 && st.write.tid != s && st.write.clock > d.vc[s][st.write.tid] {
		d.races.report(addr, WriteRead, st.write.tid, s, st.write.pc, p)
	}
	if re, ok := st.reads[s]; ok && re.clock == d.vc[s][s] {
		return // entry already current: keep the first-of-epoch pc
	}
	if st.reads == nil {
		st.reads = make(map[int]vcEpoch)
	}
	st.reads[s] = vcEpoch{tid: s, clock: d.vc[s][s], pc: p}
}

func (d *VCDetector) write(tid int, addr uint64, pc pcer) {
	d.begin(tid)
	s := d.slot(tid)
	p := pc.PC()
	st := d.state(addr)
	if st.write.clock > 0 && st.write.tid != s && st.write.clock > d.vc[s][st.write.tid] {
		d.races.report(addr, WriteWrite, st.write.tid, s, st.write.pc, p)
	}
	for rt := 0; rt <= d.nt; rt++ {
		if re, ok := st.reads[rt]; ok && rt != s && re.clock > d.vc[s][rt] {
			d.races.report(addr, ReadWrite, rt, s, re.pc, p)
		}
	}
	if st.write.tid != s || st.write.clock != d.vc[s][s] {
		st.write = vcEpoch{tid: s, clock: d.vc[s][s], pc: p}
	}
	st.reads = nil
}

// OnAcquire implements sim.EventListener: acquiring a lock joins the
// lock's release clock into the thread.
func (d *VCDetector) OnAcquire(tid int, mu *sched.Mutex) {
	d.begin(tid)
	if lv := d.locks[mu]; lv != nil {
		join(d.vc[d.slot(tid)], lv)
	}
}

// OnRelease implements sim.EventListener: releasing publishes the thread's
// clock on the lock and advances the thread's epoch.
func (d *VCDetector) OnRelease(tid int, mu *sched.Mutex) {
	d.begin(tid)
	s := d.slot(tid)
	lv := d.locks[mu]
	if lv == nil {
		lv = make([]uint64, d.nt+1)
		d.locks[mu] = lv
	}
	copy(lv, d.vc[s])
	d.vc[s][s]++
}

// OnBarrier implements sim.EventListener: a barrier episode totally orders
// all threads — everyone joins everyone and advances.
func (d *VCDetector) OnBarrier(ordinal int) {
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
	}
}

func (d *VCDetector) state(addr uint64) *addrState {
	st := d.addrs[addr]
	if st == nil {
		st = &addrState{}
		d.addrs[addr] = st
	}
	return st
}

// Races returns the detected races sorted by address then kind.
func (d *VCDetector) Races() []Race { return d.races.sorted() }
