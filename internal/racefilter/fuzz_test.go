package racefilter

// Differential testing of the epoch detector against the vector-clock
// reference (vcref_test.go): random traces of reads, writes, lock
// operations, and barrier episodes over a small thread/address/lock space
// must produce identical race sets — same (addr, kind) keys, same
// first-reporting thread pair, same raw access pcs behind the SiteA/SiteB
// attribution. CI runs the accumulated corpus under -race.

import (
	"reflect"
	"testing"

	"instantcheck/internal/apps"
	"instantcheck/internal/replay"
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// fakePC feeds a synthetic access pc through the pcer seam, standing in
// for sim.Thread.PC.
type fakePC uintptr

func (f fakePC) PC() uintptr { return uintptr(f) }

// fuzzThreads is the worker count fuzz traces run with; slots 0..3 are
// workers, tid -1 is the init thread.
const fuzzThreads = 4

// applyFuzzTrace decodes data as a trace of detector events and feeds it
// to both implementations through their internal entry points (the same
// ones OnRead/OnWrite dispatch to), with a unique synthetic pc per event
// so attribution divergence is visible.
func applyFuzzTrace(data []byte, eps *Detector, ref *VCDetector) {
	mus := [2]*sched.Mutex{new(sched.Mutex), new(sched.Mutex)}
	// Address bases span static and heap pages; the +4032 base makes word
	// offsets cross a page boundary so directory walks are exercised.
	bases := [3]uint64{0x10000, 0x10000 + 4032, 0x1000_0000}
	barriers := 0
	for i := 0; i+2 < len(data); i += 3 {
		op, ab, wb := data[i], data[i+1], data[i+2]
		tid := int(op/5)%(fuzzThreads+1) - 1
		addr := bases[ab%3] + 8*uint64(wb)
		pc := fakePC(0x1000 + i)
		mu := mus[ab%2]
		switch op % 5 {
		case 0:
			eps.read(tid, addr, pc)
			ref.read(tid, addr, pc)
		case 1:
			eps.write(tid, addr, pc)
			ref.write(tid, addr, pc)
		case 2:
			eps.OnAcquire(tid, mu)
			ref.OnAcquire(tid, mu)
		case 3:
			eps.OnRelease(tid, mu)
			ref.OnRelease(tid, mu)
		case 4:
			eps.OnBarrier(barriers)
			ref.OnBarrier(barriers)
			barriers++
		}
	}
}

func FuzzEpochEqualsVectorClock(f *testing.F) {
	// Three readers then a write (forces the inline read set to spill),
	// a lock-ordered handoff, and a barrier-separated phase pair.
	f.Add([]byte{0, 0, 10, 5, 0, 10, 10, 0, 10, 1, 0, 10})
	f.Add([]byte{1, 0, 4, 3, 0, 0, 2, 1, 0, 6, 0, 4})
	f.Add([]byte{1, 0, 9, 4, 0, 0, 0, 1, 9, 1, 2, 9})
	f.Add([]byte{6, 2, 200, 5, 2, 200, 11, 2, 200, 4, 0, 0, 16, 2, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		eps := NewDetector(fuzzThreads)
		ref := NewVCDetector(fuzzThreads)
		applyFuzzTrace(data, eps, ref)
		er, vr := eps.Races(), ref.Races()
		if !reflect.DeepEqual(er, vr) {
			t.Fatalf("race sets diverge:\nepoch: %+v\nvcref: %+v", er, vr)
		}
	})
}

// TestReadSetSpill drives a word through inline read entries into the
// spill map and back (a write clears it), checking the read-write races
// and the stats accounting.
func TestReadSetSpill(t *testing.T) {
	d := NewDetector(4)
	const addr = 0x10000
	for tid := 0; tid < 3; tid++ {
		d.read(tid, addr, fakePC(0x100+tid))
	}
	if got := d.Stats().ReadSpills; got != 1 {
		t.Fatalf("ReadSpills = %d, want 1 after a third concurrent reader", got)
	}
	d.write(3, addr, fakePC(0x200))
	races := d.Races()
	if len(races) != 1 || races[0].Kind != ReadWrite {
		t.Fatalf("races = %+v, want one read-write", races)
	}
	if races[0].TidA != 0 || races[0].TidB != 3 {
		t.Errorf("first report = tids (%d,%d), want canonical lowest reader (0,3)",
			races[0].TidA, races[0].TidB)
	}
	// The write cleared the read set: a same-epoch repeat write is now a
	// fast-path no-op.
	before := d.Stats().WriteFast
	d.write(3, addr, fakePC(0x201))
	if d.Stats().WriteFast != before+1 {
		t.Error("repeat same-epoch write after clear did not take the fast path")
	}
}

// TestSameEpochFastPaths checks repeat accesses short-circuit and that a
// release (epoch advance) reopens the slow path.
func TestSameEpochFastPaths(t *testing.T) {
	d := NewDetector(2)
	mu := new(sched.Mutex)
	const addr = 0x1000_0000
	d.read(0, addr, fakePC(1))
	d.read(0, addr, fakePC(2))
	d.read(0, addr, fakePC(3))
	if st := d.Stats(); st.ReadFast != 2 || st.ReadSlow != 1 {
		t.Errorf("read stats = %+v, want 2 fast / 1 slow", st)
	}
	d.write(0, addr, fakePC(4))
	d.write(0, addr, fakePC(5))
	if st := d.Stats(); st.WriteFast != 1 || st.WriteSlow != 1 {
		t.Errorf("write stats = %+v, want 1 fast / 1 slow", st)
	}
	// Epoch advance: the next write must re-run the HB checks.
	d.OnRelease(0, mu)
	d.write(0, addr, fakePC(6))
	if st := d.Stats(); st.WriteSlow != 2 {
		t.Errorf("post-release write stats = %+v, want a second slow write", st)
	}
	if races := d.Races(); len(races) != 0 {
		t.Errorf("single-thread trace reported races: %+v", races)
	}
}

// teeListener feeds one run's event stream to two detectors, so both
// observe the identical accesses, pcs and synchronization.
type teeListener struct{ a, b sim.EventListener }

func (t teeListener) OnRead(th *sim.Thread, addr uint64) {
	t.a.OnRead(th, addr)
	t.b.OnRead(th, addr)
}

func (t teeListener) OnWrite(th *sim.Thread, addr uint64) {
	t.a.OnWrite(th, addr)
	t.b.OnWrite(th, addr)
}

func (t teeListener) OnAcquire(tid int, mu *sched.Mutex) {
	t.a.OnAcquire(tid, mu)
	t.b.OnAcquire(tid, mu)
}

func (t teeListener) OnRelease(tid int, mu *sched.Mutex) {
	t.a.OnRelease(tid, mu)
	t.b.OnRelease(tid, mu)
}

func (t teeListener) OnBarrier(ordinal int) {
	t.a.OnBarrier(ordinal)
	t.b.OnBarrier(ordinal)
}

// TestEpochEqualsVectorClockOnApps runs the differential check on real
// event streams: every workload and seeded Figure 7 bug (small inputs, 4
// threads, 3 schedules) under the epoch detector and the vector-clock
// reference at once, requiring identical race lists, pcs included.
func TestEpochEqualsVectorClockOnApps(t *testing.T) {
	type detCase struct {
		name string
		app  *apps.App
		bug  apps.BugKind
	}
	var cases []detCase
	for _, app := range apps.Registry() {
		cases = append(cases, detCase{app.Name, app, apps.BugNone})
		if app.HostsBug != apps.BugNone {
			cases = append(cases, detCase{app.Name + "+bug", app, app.HostsBug})
		}
	}
	total := 0
	for _, c := range cases {
		env := replay.NewEnv(1)
		addrLog := replay.NewAddrLog()
		for run := 0; run < 3; run++ {
			eps, ref := NewDetector(4), NewVCDetector(4)
			m := sim.NewMachine(sim.Config{
				Threads: 4, ScheduleSeed: int64(run + 1), Scheme: sim.HWInc,
				RoundFP: c.app.UsesFP, Env: env, AddrLog: addrLog,
				Events: teeListener{eps, ref},
			})
			if _, err := m.Run(c.app.Build(apps.Options{Threads: 4, Small: true, Bug: c.bug})); err != nil {
				t.Fatalf("%s run %d: %v", c.name, run, err)
			}
			er, vr := eps.Races(), ref.Races()
			if !reflect.DeepEqual(er, vr) {
				t.Fatalf("%s run %d: race lists diverge:\nepoch: %+v\nvcref: %+v", c.name, run, er, vr)
			}
			total += len(er)
		}
	}
	if total == 0 {
		t.Fatal("no races detected: the comparison is vacuous")
	}
	t.Logf("%d races compared", total)
}
