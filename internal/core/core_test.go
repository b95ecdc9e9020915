package core

import (
	"strings"
	"testing"

	"instantcheck/internal/ihash"
	"instantcheck/internal/mem"
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// toy is a closure-driven test program.
type toy struct {
	nt     int
	setup  func(*sim.Thread)
	worker func(*sim.Thread)
}

func (p *toy) Name() string { return "toy" }
func (p *toy) Threads() int { return p.nt }
func (p *toy) Setup(t *sim.Thread) {
	if p.setup != nil {
		p.setup(t)
	}
}
func (p *toy) Worker(t *sim.Thread) {
	if p.worker != nil {
		p.worker(t)
	}
}

// detBuilder returns a fresh deterministic program: disjoint writes, one
// barrier.
func detBuilder() Builder {
	return func() sim.Program {
		p := &toy{nt: 2}
		var arr uint64
		var bar *sched.Barrier
		p.setup = func(t *sim.Thread) {
			arr = t.AllocStatic("static:arr", 8, mem.KindWord)
			bar = t.Machine().NewBarrier("b")
		}
		p.worker = func(t *sim.Thread) {
			for i := 0; i < 4; i++ {
				t.Store(arr+uint64(t.TID()*4+i)*8, uint64(t.TID()*100+i))
			}
			t.BarrierWait(bar)
		}
		return p
	}
}

// racyBuilder returns a program whose final state depends on the schedule:
// last writer wins on a shared word.
func racyBuilder() Builder {
	return func() sim.Program {
		p := &toy{nt: 2}
		var w uint64
		p.setup = func(t *sim.Thread) {
			w = t.AllocStatic("static:w", 1, mem.KindWord)
		}
		p.worker = func(t *sim.Thread) {
			for i := 0; i < 5; i++ {
				t.Store(w, uint64(t.TID())+1)
				t.Compute(3)
			}
		}
		return p
	}
}

// envGrowthBuilder returns a program whose threads make a
// schedule-dependent number of env calls: each bumps a racy counter and
// calls Rand once more than the count it read. A replay run in which a
// thread reads a larger count than it did in the recording run draws past
// the recorded env stream, so its draws must come from the run's own fork
// and not from whatever earlier runs left behind.
func envGrowthBuilder() Builder {
	return func() sim.Program {
		p := &toy{nt: 2}
		var ctr, out uint64
		p.setup = func(t *sim.Thread) {
			ctr = t.AllocStatic("static:ctr", 1, mem.KindWord)
			out = t.AllocStatic("static:out", 2, mem.KindWord)
		}
		p.worker = func(t *sim.Thread) {
			n := t.Load(ctr)
			t.Compute(3)
			t.Store(ctr, n+1)
			var sum uint64
			for i := uint64(0); i <= n; i++ {
				sum += t.Rand()
			}
			t.Store(out+uint64(t.TID())*8, sum)
		}
		return p
	}
}

func testCampaign() Campaign {
	return Campaign{Runs: 10, Threads: 2, BaseScheduleSeed: 50}
}

// TestDeterministicVerdict checks a clean program gets a clean report.
func TestDeterministicVerdict(t *testing.T) {
	rep, err := testCampaign().Check(detBuilder())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic() {
		t.Fatalf("ndet points: %d", rep.NDetPoints)
	}
	if rep.Points() != 2 { // barrier + end
		t.Errorf("points = %d", rep.Points())
	}
	if rep.FirstNDetRun != 0 {
		t.Errorf("FirstNDetRun = %d", rep.FirstNDetRun)
	}
	if !rep.DetAtEnd || rep.FirstNDetPoint() != -1 {
		t.Error("end verdicts")
	}
	for _, s := range rep.Stats {
		if len(s.Distribution) != 1 || s.Distribution[0] != 10 {
			t.Errorf("distribution %v", s.Distribution)
		}
	}
	groups := rep.DistGroups()
	if len(groups) != 1 || groups[0].Checkpoints != 2 {
		t.Errorf("groups = %+v", groups)
	}
	if len(rep.NDetDistGroups()) != 0 {
		t.Error("spurious ndet groups")
	}
}

// TestNondeterministicVerdict checks a racy program is flagged quickly.
func TestNondeterministicVerdict(t *testing.T) {
	rep, err := testCampaign().Check(racyBuilder())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deterministic() {
		t.Fatal("race not detected")
	}
	if rep.FirstNDetRun < 2 || rep.FirstNDetRun > 4 {
		t.Errorf("FirstNDetRun = %d", rep.FirstNDetRun)
	}
	if rep.DetAtEnd {
		t.Error("end should be nondeterministic")
	}
	sum := 0
	for _, g := range rep.NDetDistGroups() {
		sum += g.Checkpoints
	}
	if sum != rep.NDetPoints {
		t.Errorf("group sum %d != ndet points %d", sum, rep.NDetPoints)
	}
}

// TestOutputDeterminismPerStream checks §4.3 across descriptors: a racy
// write ORDER on one stream makes the output nondeterministic even though
// the memory state stays deterministic; a fixed order is deterministic.
func TestOutputDeterminismPerStream(t *testing.T) {
	build := func(racy bool) Builder {
		return func() sim.Program {
			p := &toy{nt: 2}
			p.worker = func(t *sim.Thread) {
				if !racy && t.TID() == 1 {
					// Fixed order: thread 1 defers to a flag... simply:
					// only thread 0 writes.
					return
				}
				t.WriteFd(7, []byte{byte(t.TID() + 'a')})
			}
			return p
		}
	}
	det, err := testCampaign().Check(build(false))
	if err != nil {
		t.Fatal(err)
	}
	if det.OutputDistinct != 1 {
		t.Errorf("single-writer output distinct = %d", det.OutputDistinct)
	}
	racy, err := testCampaign().Check(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if racy.OutputDistinct < 2 {
		t.Errorf("racy write order not visible in output hash (distinct=%d)", racy.OutputDistinct)
	}
	if !racy.Deterministic() {
		t.Error("memory state should still be deterministic")
	}
}

// TestDistKey pins the distribution formatting of Figures 5/8.
func TestDistKey(t *testing.T) {
	s := CheckpointStat{Distribution: []int{16, 11, 3}}
	if s.DistKey() != "16/11/3" {
		t.Errorf("key = %q", s.DistKey())
	}
}

// TestCharacterizeClasses runs the Table 1 taxonomy on three toy programs
// engineered into the three non-bit classes.
func TestCharacterizeClasses(t *testing.T) {
	// FP class: racy-order locked FP accumulation.
	fpBuilder := func() sim.Program {
		p := &toy{nt: 2}
		var acc uint64
		var mu *sched.Mutex
		p.setup = func(t *sim.Thread) {
			acc = t.AllocStatic("static:acc", 1, mem.KindFloat)
			mu = t.Machine().NewMutex("acc")
		}
		p.worker = func(t *sim.Thread) {
			for i := 0; i < 6; i++ {
				t.Lock(mu)
				v := t.LoadF(acc)
				t.StoreF(acc, v+0.1*float64(t.TID()*6+i+1))
				t.Unlock(mu)
			}
		}
		return p
	}
	ch, err := testCampaign().Characterize(fpBuilder, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Class != ClassFPDeterministic {
		t.Errorf("class = %v, want FP-prec (bit det=%v, rounded det=%v)",
			ch.Class, ch.BitByBit.Deterministic(), ch.AfterRounding.Deterministic())
	}
	if ch.Best() != ch.AfterRounding {
		t.Error("Best() for FP class")
	}

	// Struct class: schedule-dependent scratch content at one site.
	structBuilder := func() sim.Program {
		p := &toy{nt: 2}
		var cur uint64
		var mu *sched.Mutex
		var scratch uint64
		p.setup = func(t *sim.Thread) {
			cur = t.AllocStatic("static:cur", 1, mem.KindWord)
			mu = t.Machine().NewMutex("cur")
			scratch = t.Malloc("scratch", 4, mem.KindWord)
		}
		p.worker = func(t *sim.Thread) {
			for i := 0; i < 4; i++ {
				t.Lock(mu)
				slot := t.Load(cur)
				t.Store(cur, slot+1)
				t.Unlock(mu)
				t.Store(scratch+(slot%4)*8, uint64(t.TID()*1000+i))
			}
		}
		return p
	}
	ig := sim.NewIgnoreSet(sim.IgnoreRule{Site: "scratch"})
	ch2, err := testCampaign().Characterize(structBuilder, ig)
	if err != nil {
		t.Fatal(err)
	}
	if ch2.Class != ClassStructDeterministic {
		t.Errorf("class = %v, want small-struct", ch2.Class)
	}
	if ch2.Best() != ch2.AfterIsolation {
		t.Error("Best() for struct class")
	}

	// NDet class: the racy program with no isolation offered.
	ch3, err := testCampaign().Characterize(racyBuilder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch3.Class != ClassNondeterministic {
		t.Errorf("class = %v, want NDet", ch3.Class)
	}

	// Bit class.
	ch4, err := testCampaign().Characterize(detBuilder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch4.Class != ClassBitDeterministic || ch4.Best() != ch4.BitByBit {
		t.Errorf("class = %v, want bit-by-bit", ch4.Class)
	}
}

// TestClassStrings pins the Table 1 group labels.
func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassBitDeterministic:    "bit-by-bit",
		ClassFPDeterministic:     "FP-prec",
		ClassStructDeterministic: "small-struct",
		ClassNondeterministic:    "NDet",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d = %q", c, c.String())
		}
	}
}

// TestDiffCapture checks the §2.3 re-execution flow: it must snapshot the
// very executions the report compared, so each snapshot, re-hashed word by
// word, equals its run's reported raw State Hash at the captured
// checkpoint. The racy program's snapshots must also differ at the racy
// word. The env-growth program's replay runs can draw past the recorded
// env stream.
func TestDiffCapture(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() Builder
	}{{"racy", racyBuilder}, {"env-growth", envGrowthBuilder}} {
		t.Run(tc.name, func(t *testing.T) {
			camp := testCampaign()
			camp.SnapshotDifferingRuns = true
			rep, err := camp.Check(tc.build())
			if err != nil {
				t.Fatal(err)
			}
			d := rep.DiffSnapshots
			if d == nil {
				t.Fatal("no capture")
			}
			if d.RunA != 1 || d.RunB != rep.FirstNDetRun {
				t.Errorf("runs %d/%d", d.RunA, d.RunB)
			}
			if d.A == nil || d.B == nil {
				t.Fatal("missing snapshots")
			}
			for _, side := range []struct {
				run  int
				snap *mem.Snapshot
			}{{d.RunA, d.A}, {d.RunB, d.B}} {
				want := rep.Runs[side.run-1].Checkpoints[d.Ordinal].RawSH
				if got := rawSH(side.snap); got != want {
					t.Errorf("run %d snapshot hashes to %s; the report has %s at checkpoint %d",
						side.run, got, want, d.Ordinal)
				}
			}
			if tc.name == "racy" {
				va, _ := d.A.Word(mem.StaticBase)
				vb, _ := d.B.Word(mem.StaticBase)
				if va == vb {
					t.Error("snapshots agree at the racy word; capture mis-aimed")
				}
			}
		})
	}
}

// rawSH recomputes a snapshot's raw State Hash word by word from its
// definition, Σ h(a,v) ⊖ h(a,0), with the default location hash.
func rawSH(s *mem.Snapshot) ihash.Digest {
	var h ihash.Hasher = ihash.Mix64{}
	var sh ihash.Digest
	for i, a := range s.Addrs {
		sh = sh.Combine(h.HashWord(a, s.Vals[i]).Subtract(h.HashWord(a, 0)))
	}
	return sh
}

// TestNativeCampaignRejected checks the configuration guard.
func TestNativeCampaignRejected(t *testing.T) {
	c := testCampaign()
	c.Scheme = sim.SWTr // valid
	if _, err := c.Check(detBuilder()); err != nil {
		t.Fatal(err)
	}
	// Native cannot check determinism. (Scheme zero value upgrades to
	// HWInc via defaults, so this must be explicit.)
	rep, err := Campaign{Runs: 2, Threads: 2}.Check(detBuilder())
	if err != nil || rep.Campaign.Scheme != sim.HWInc {
		t.Errorf("default scheme: %v %v", rep.Campaign.Scheme, err)
	}
}

// TestRunError propagates worker failures with run context.
func TestRunError(t *testing.T) {
	b := func() sim.Program {
		return &toy{nt: 2, worker: func(t *sim.Thread) { panic("kaboom") }}
	}
	_, err := testCampaign().Check(b)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v", err)
	}
}

// TestOverheadModel pins the §7.3 cost model arithmetic on hand-computed
// counters.
func TestOverheadModel(t *testing.T) {
	c := sim.Counters{
		Instr:           1000,
		Stores:          10,
		AllocZeroWords:  4,
		FreeEraseWords:  2,
		CheckpointWords: 50,
	}
	ov := DefaultCostModel.Overheads("x", c)
	// HW: (1000 + 6) / 1000
	if got, want := ov.HWInc, 1.006; !fpnear(got, want) {
		t.Errorf("HW = %v, want %v", got, want)
	}
	// SW-Inc: 1000 + 6 + 10*161 + 2*161 = 2938
	if got, want := ov.SWIncIdeal, 2.938; !fpnear(got, want) {
		t.Errorf("SWInc = %v, want %v", got, want)
	}
	// Unbuffered run (no flushes): the buffered bound degenerates to ideal.
	if got, want := ov.SWIncBuffered, ov.SWIncIdeal; !fpnear(got, want) {
		t.Errorf("SWIncBuffered = %v, want ideal %v on an unbuffered run", got, want)
	}
	// SW-Tr: 1000 + 6 + 50*80 = 5006
	if got, want := ov.SWTrIdeal, 5.006; !fpnear(got, want) {
		t.Errorf("SWTr = %v, want %v", got, want)
	}
}

// TestOverheadBuffered pins the buffered SW-Inc accounting: stores pay the
// append, only the measured drain pairs pay the hash.
func TestOverheadBuffered(t *testing.T) {
	c := sim.Counters{
		Instr:                   1000,
		Stores:                  10,
		AllocZeroWords:          4,
		FreeEraseWords:          2,
		CheckpointWords:         50,
		StoreBufferFlushes:      1,
		StoreBufferDrainedWords: 3,
		StoreBufferEvictions:    1,
	}
	ov := DefaultCostModel.Overheads("x", c)
	// 1000 + 6 + (10+2)*8 + (3+1)*2*80 = 1742.
	if got, want := ov.SWIncBuffered, 1.742; !fpnear(got, want) {
		t.Errorf("SWIncBuffered = %v, want %v", got, want)
	}
	if !(ov.SWIncBuffered < ov.SWIncIdeal) {
		t.Errorf("buffered (%v) should undercut ideal (%v)", ov.SWIncBuffered, ov.SWIncIdeal)
	}
	if !(ov.HWInc < ov.SWIncBuffered) {
		t.Errorf("buffered (%v) should still cost more than hardware (%v)", ov.SWIncBuffered, ov.HWInc)
	}
}

// TestOverheadWithIgnores pins the deletion costs.
func TestOverheadWithIgnores(t *testing.T) {
	c := sim.Counters{Instr: 1000, IgnoredWordChecks: 100}
	ov := DefaultCostModel.Overheads("x", c)
	if got, want := ov.HWInc, 1.3; !fpnear(got, want) { // 3 instr/word
		t.Errorf("HW = %v", got)
	}
	// SW-Inc pays a full minus+plus hash pair per ignored word.
	if got, want := ov.SWIncIdeal, (1000.0+100*161)/1000; !fpnear(got, want) {
		t.Errorf("SWInc = %v, want %v", got, want)
	}
	// SW-Tr simply skips ignored words; with CheckpointWords=0 the
	// subtraction clamps at zero sweep.
	if got, want := ov.SWTrIdeal, 1.0; !fpnear(got, want) {
		t.Errorf("SWTr = %v", got)
	}
}

// TestGeoMean checks the Figure 6 aggregate.
func TestGeoMean(t *testing.T) {
	rows := []Overhead{
		{HWInc: 1, SWIncIdeal: 2, SWTrIdeal: 4},
		{HWInc: 1, SWIncIdeal: 8, SWTrIdeal: 16},
	}
	g := GeoMean(rows)
	if !fpnear(g.HWInc, 1) || !fpnear(g.SWIncIdeal, 4) || !fpnear(g.SWTrIdeal, 8) {
		t.Errorf("geomean = %+v", g)
	}
	empty := GeoMean(nil)
	if empty.Program != "GEOM" {
		t.Error("empty geomean")
	}
}

// TestMeasureOverhead smoke-checks the one-run measurement path.
func TestMeasureOverhead(t *testing.T) {
	ov, err := testCampaign().MeasureOverhead(detBuilder())
	if err != nil {
		t.Fatal(err)
	}
	if ov.NativeInstr == 0 || ov.SWIncIdeal <= 1 || ov.SWTrIdeal <= 1 {
		t.Errorf("overhead = %+v", ov)
	}
	if ov.HWInc != 1 { // no heap allocation in detBuilder
		t.Errorf("HW = %v, want exactly 1 (no allocations)", ov.HWInc)
	}
}

func fpnear(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
