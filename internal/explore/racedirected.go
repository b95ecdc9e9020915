package explore

// Race-directed search: the happens-before detector (internal/racefilter)
// names the racy site pairs of the first runs, each site a
// "dir/file.go:line" string (sim.Site, the same identity `icvet race`
// reports statically); this file uses them as preemption hints. Uniform
// random search only exposes a rare atomicity window when the scheduler
// happens to switch threads inside it, so the expected number of runs to
// surface a bug like Figure 7(b) is large. Forcing a scheduling decision
// immediately before every access at a racy site concentrates the
// schedule randomness exactly where a race can change the outcome.

import (
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// raceDirector is an EventListener that forces a scheduling decision
// immediately before every access at a hinted site. OnRead/OnWrite fire
// before the operation commits, so the preemption lands inside the racy
// window (between a load and the store of an unlocked read-modify-write,
// for example) rather than after it has closed. It preempts through the
// scheduler of the accessing thread's machine.
type raceDirector struct {
	sites map[string]bool
	pcs   map[uintptr]bool // memoized pc -> hinted
	hits  int
}

func (d *raceDirector) hinted(pc uintptr) bool {
	v, ok := d.pcs[pc]
	if !ok {
		v = d.sites[sim.Site(pc)]
		d.pcs[pc] = v
	}
	return v
}

func (d *raceDirector) maybePreempt(t *sim.Thread) {
	tid := t.TID()
	if tid < 0 {
		return
	}
	// Directing is inherently per-site, so the director pulls the pc on
	// every worker access; the pc -> hinted verdict is memoized so the
	// site resolution itself runs once per distinct access site.
	if !d.hinted(t.PC()) {
		return
	}
	sch := t.Machine().Scheduler()
	if sch == nil {
		return
	}
	d.hits++
	sch.Preempt(tid)
}

func (d *raceDirector) OnRead(t *sim.Thread, addr uint64)  { d.maybePreempt(t) }
func (d *raceDirector) OnWrite(t *sim.Thread, addr uint64) { d.maybePreempt(t) }
func (d *raceDirector) OnAcquire(int, *sched.Mutex)        {}
func (d *raceDirector) OnRelease(int, *sched.Mutex)        {}
func (d *raceDirector) OnBarrier(int)                      {}
