package sim

import (
	"fmt"

	"instantcheck/internal/fpround"
	"instantcheck/internal/ihash"
	"instantcheck/internal/mem"
	"instantcheck/internal/mhm"
	"instantcheck/internal/sched"
)

// Program is a simulated parallel program. Setup runs once on an
// initialization thread before the workers start (allocating global state
// and reading input); Worker runs once per worker thread under the
// serializing scheduler. A Program instance is used for exactly one run;
// build a fresh instance per run so shared handles reset.
type Program interface {
	// Name identifies the program.
	Name() string
	// Threads returns the worker thread count.
	Threads() int
	// Setup initializes global state using the init thread.
	Setup(t *Thread)
	// Worker is the body of worker thread t.TID().
	Worker(t *Thread)
}

// Machine executes one run of a Program under one Config.
type Machine struct {
	cfg Config
	// Mem is the simulated address space.
	Mem *mem.Memory

	sch    *sched.Scheduler
	hasher ihash.Hasher

	// units[tid] is worker tid's MHM; initUnit belongs to the setup thread.
	units    []*mhm.Unit
	initUnit *mhm.Unit

	rounding fpround.Policy
	roundFP  bool

	// zeroSums caches Σ h(a,0) per page-bounded run for the traversal
	// scheme.
	zeroSums *ihash.ZeroSumCache

	// pageSums caches per-page State-Hash contributions for dirty-page
	// delta checkpoints; nil until the run's first sweep.
	pageSums *ihash.PageSumCache

	checkpoints []Checkpoint
	counters    Counters

	outputs    map[int]*OutputStream
	outputData map[int][]byte

	// accessorPCs memoizes isAccessorFrame per return address.
	accessorPCs map[uintptr]bool

	running  bool
	finished bool
}

// NewMachine prepares a machine for one run.
func NewMachine(cfg Config) *Machine {
	if cfg.Threads <= 0 {
		panic("sim: Config.Threads must be positive")
	}
	h := cfg.Hasher
	if h == nil {
		h = ihash.Mix64{}
	}
	if cfg.RoundFP && !cfg.Rounding.Enabled() {
		cfg.Rounding = fpround.Default
	}
	m := &Machine{
		cfg:      cfg,
		Mem:      mem.New(),
		hasher:   h,
		rounding: cfg.Rounding,
		roundFP:  cfg.RoundFP,
	}
	if cfg.Scheme.Incremental() {
		m.units = make([]*mhm.Unit, cfg.Threads)
		for i := range m.units {
			m.units[i] = m.newUnit()
		}
		m.initUnit = m.newUnit()
	}
	// SWIncNonAtomic always hashes inline: the naive instrumentation it
	// models performs the hash pair inside every store, and its deliberate
	// §4.1 stale-read window must stay exactly as seeded.
	if cfg.Scheme == HWInc || cfg.Scheme == SWInc {
		for _, u := range m.units {
			u.SetStoreBuffer(StoreBufferAutoWords)
		}
		m.initUnit.SetStoreBuffer(StoreBufferAutoWords)
	}
	if cfg.AddrLog != nil {
		log := cfg.AddrLog
		m.Mem.AddrHook = func(site string, seq, words int) (uint64, bool) {
			return log.Lookup(site, seq)
		}
	}
	return m
}

func (m *Machine) newUnit() *mhm.Unit {
	u := mhm.New(m.hasher, m.rounding)
	if m.roundFP {
		u.StartFPRounding()
	}
	return u
}

// newThread builds an execution context, pre-resolving the pointers the
// per-operation accessors chase on every simulated instruction.
func (m *Machine) newThread(tid int, sch *sched.Scheduler, unit *mhm.Unit) *Thread {
	return &Thread{
		m: m, tid: tid, sch: sch,
		mm: m.Mem, ctr: &m.counters, ev: m.cfg.Events,
		unit: unit,
	}
}

// Config returns the run configuration.
func (m *Machine) Config() Config { return m.cfg }

// Scheduler returns the scheduler (nil before Run starts workers).
func (m *Machine) Scheduler() *sched.Scheduler { return m.sch }

// Run executes the program to completion and returns the run result. The
// final checkpoint ("end") is always captured, matching the paper's check at
// run end. Run may be called once per Machine.
func (m *Machine) Run(p Program) (*Result, error) {
	if m.finished {
		panic("sim: Machine reused across runs")
	}
	m.finished = true
	// No unit's TH is read after Run returns, so the run's store buffers
	// go back to mhm for the next run's units.
	defer m.releaseStoreBuffers()
	if p.Threads() != m.cfg.Threads {
		return nil, fmt.Errorf("sim: program %s wants %d threads, config has %d", p.Name(), p.Threads(), m.cfg.Threads)
	}
	if m.cfg.Env != nil {
		m.cfg.Env.BeginRun()
	}
	// Setup phase on the init thread: the allocations and stores it makes
	// are the program's fixed input state.
	init := m.newThread(-1, sched.Inert(), m.initUnit)
	p.Setup(init)
	m.counters.Instr += init.instr

	if m.cfg.Decider != nil {
		m.sch = sched.NewControlled(m.cfg.Threads, m.cfg.Decider)
	} else {
		m.sch = sched.New(m.cfg.Threads, m.cfg.ScheduleSeed, m.cfg.SwitchInterval)
	}
	threads := make([]*Thread, m.cfg.Threads)
	for i := range threads {
		var u *mhm.Unit
		if m.units != nil {
			u = m.units[i]
		}
		threads[i] = m.newThread(i, m.sch, u)
	}
	m.running = true
	err := m.sch.Run(func(tid int) {
		p.Worker(threads[tid])
		// Thread exit is a drain point: the worker's TH will next be read
		// at the end-of-run capture, and its buffered updates belong to
		// work this thread finished.
		if u := threads[tid].unit; u != nil {
			u.FlushStoreBuffer()
		}
	})
	m.running = false
	if err != nil {
		return nil, err
	}
	for _, t := range threads {
		m.counters.Instr += t.instr
	}
	if err := m.capture("end"); err != nil {
		return nil, err
	}
	m.counters.FastLoadMisses, m.counters.FastStoreMisses = m.Mem.FastPathStats()
	m.counters.SchedOps = m.sch.Ops()
	res := &Result{
		Checkpoints: m.checkpoints,
		Counters:    m.counters,
	}
	if len(m.outputs) > 0 {
		res.Outputs = make(map[int]OutputStream, len(m.outputs))
		for fd, s := range m.outputs {
			res.Outputs[fd] = *s
			res.OutputBytes += s.Bytes
		}
		if s, ok := m.outputs[Stdout]; ok {
			res.OutputHash = s.Hash
		}
		res.OutputData = m.outputData
	}
	if m.units != nil {
		for _, u := range m.units {
			res.MHMStats.Add(u.Stats())
		}
		res.MHMStats.Add(m.initUnit.Stats())
		// Mirror the store-buffer effectiveness numbers into the run
		// counters (off the hot path, once per run) so they flow to the
		// farm's metrics layer alongside the other observability counters.
		res.Counters.StoreBufferFlushes = res.MHMStats.BufferFlushes
		res.Counters.StoreBufferDrainedWords = res.MHMStats.DrainedWords
		res.Counters.StoreBufferCoalesced = res.MHMStats.CoalescedStores
		res.Counters.StoreBufferEvictions = res.MHMStats.ConflictEvictions
	}
	return res, nil
}

// releaseStoreBuffers detaches every unit's store buffer for reuse.
func (m *Machine) releaseStoreBuffers() {
	if m.units == nil {
		return
	}
	for _, u := range m.units {
		u.SetStoreBuffer(0)
	}
	m.initUnit.SetStoreBuffer(0)
}

// NewMutex returns a named scheduler-aware mutex.
func (m *Machine) NewMutex(name string) *sched.Mutex { return sched.NewMutex(name) }

// NewCond returns a condition variable tied to mu.
func (m *Machine) NewCond(name string, mu *sched.Mutex) *sched.Cond {
	return sched.NewCond(name, mu)
}

// NewBarrier returns a pthread-style barrier for all worker threads. Every
// barrier episode is a determinism-checking point: when the last thread
// arrives — with all other participants blocked, so the shared state is
// quiescent — the machine captures a checkpoint (paper §2.3: "InstantCheck
// checks determinism at each program barrier and at run end").
func (m *Machine) NewBarrier(name string) *sched.Barrier {
	b := sched.NewBarrier(name, m.cfg.Threads)
	b.OnFull = func(episode, lastTID int) {
		if err := m.capture(name); err != nil {
			// The checkpoint hook asked to cancel (state pruning, replay
			// mismatch): unwind the run cleanly.
			m.sch.Abort(err)
		}
	}
	return b
}

// capture records a determinism-checking point and runs the checkpoint
// hook. It must run while the state is quiescent: on the last thread to
// arrive at a barrier, or after all threads have finished.
func (m *Machine) capture(label string) error {
	cp := Checkpoint{
		Ordinal:   len(m.checkpoints),
		Label:     label,
		LiveWords: m.Mem.LiveWords(),
	}
	m.counters.Checkpoints++
	m.counters.CheckpointWords += uint64(cp.LiveWords)
	if m.cfg.Scheme.Hashing() {
		var sh ihash.Digest
		if m.cfg.Scheme.Incremental() {
			sh = m.initUnit.TH()
			for _, u := range m.units {
				sh = sh.Combine(u.TH())
			}
		} else {
			sh = m.traverseHash()
		}
		cp.RawSH = sh
		adj, examined := m.cfg.Ignore.adjust(m, sh)
		cp.SH = adj
		m.counters.IgnoredWordChecks += examined
	}
	if m.cfg.SnapshotAt[cp.Ordinal] {
		cp.Snapshot = m.Mem.Snapshot()
	}
	m.checkpoints = append(m.checkpoints, cp)
	if m.cfg.Events != nil {
		m.cfg.Events.OnBarrier(cp.Ordinal)
	}
	if m.cfg.CheckpointHook != nil {
		return m.cfg.CheckpointHook(cp)
	}
	return nil
}

// traverseHash computes the state hash by sweeping the static segment and
// the live-allocation table, as SW-InstantCheck_Tr does (§4.2). Each live
// word contributes h(a, v) ⊖ h(a, 0): its delta from the fixed zero-filled
// initial state, the same quantity the incremental schemes accumulate. FP
// words are rounded using the allocation table's type information.
//
// The sweep rehashes only the pages dirtied since the previous checkpoint
// and patches a per-page contribution cache, SH' = SH ⊖ C_old(p) ⊕
// C_new(p); because ⊕ is an abelian group operation the patched digest is
// bit-identical to a full sweep of the same state. Stores, allocations and
// frees mark pages dirty from the start of the run, so the first sweep,
// over an empty cache, is the full sweep. A dirty page with no remaining
// nonzero live runs replaces its contribution with Zero — the §2.2
// deletion algebra at page granularity, which is how freed blocks leave
// the hash. All-zero runs, never-materialized backing included, cancel
// (Σ h(a,0) ⊖ Σ h(a,0) = 0) and are skipped; for the rest the Σ h(a,0)
// term comes from a per-run memo instead of a per-word hash.
//
// The sweep streams: dirty pages arrive in ascending order, each followed
// by its runs, so a page's new contribution is complete when the next
// page starts or the sweep ends. It runs on the run's own goroutine; a
// campaign's parallelism is across runs.
func (m *Machine) traverseHash() ihash.Digest {
	first := m.pageSums == nil
	if first {
		m.zeroSums = ihash.NewZeroSumCache(m.hasher)
		m.pageSums = ihash.NewPageSumCache()
	}
	var (
		pages   uint64
		page    uint64
		pageSum ihash.Digest
	)
	m.Mem.TraverseDirtyRuns(
		func(pn uint64) {
			if pages > 0 {
				m.pageSums.Replace(page, pageSum)
			}
			pages++
			page, pageSum = pn, ihash.Zero
		},
		func(base uint64, words []uint64, kind mem.Kind) {
			if mem.IsZeroRun(words) {
				return // contributes 0 to its page sum either way
			}
			pageSum = pageSum.Combine(m.hashRun(base, words, kind))
			m.counters.TraverseRunsHashed++
		})
	if pages > 0 {
		m.pageSums.Replace(page, pageSum)
	}
	m.Mem.ClearDirty()
	if first {
		m.counters.TraverseFullSweeps++
	} else {
		m.counters.TraverseDeltaSweeps++
		m.counters.TraverseDirtyPages += pages
		m.counters.TraverseLivePages += uint64(m.pageSums.Len())
	}
	return m.pageSums.Total()
}

// hashRun returns Σ h(a, v) ⊖ Σ h(a, 0) for one page-bounded run.
func (m *Machine) hashRun(base uint64, words []uint64, kind mem.Kind) ihash.Digest {
	h := m.hasher
	var d ihash.Digest
	if kind == mem.KindFloat && m.roundFP {
		rd := m.rounding
		if _, ok := h.(ihash.Mix64); ok {
			// Devirtualized: with the default hasher the per-word hash
			// inlines, leaving the round-off unit as the loop's only call.
			var mh ihash.Mix64
			for i, v := range words {
				d = d.Combine(mh.HashWord(base+uint64(i)*mem.WordSize, rd.RoundBits(v)))
			}
		} else {
			for i, v := range words {
				d = d.Combine(h.HashWord(base+uint64(i)*mem.WordSize, rd.RoundBits(v)))
			}
		}
	} else {
		d = ihash.BatchInsert(h, base, words)
	}
	return d.Subtract(m.zeroSums.Sum(base, len(words)))
}

// SetFPRounding flips the FP round-off unit for every thread mid-run,
// implementing start_FP_rounding / stop_FP_rounding issued by the program.
func (m *Machine) SetFPRounding(on bool) {
	m.roundFP = on
	if m.units == nil {
		return
	}
	set := func(u *mhm.Unit) {
		if on {
			u.StartFPRounding()
		} else {
			u.StopFPRounding()
		}
	}
	for _, u := range m.units {
		set(u)
	}
	set(m.initUnit)
}

func (m *Machine) writeOutput(fd int, p []byte) {
	// FNV-1a over the stream in write order: InstantCheck's libc-write
	// interception hashes "the actually written bytes before the return
	// from the function" (§4.3), so ordering between unsynchronized
	// writers is visible — deliberately. Each descriptor carries its own
	// stream hash, as a full per-file implementation would.
	if m.outputs == nil {
		m.outputs = make(map[int]*OutputStream)
	}
	s := m.outputs[fd]
	if s == nil {
		s = &OutputStream{Hash: 14695981039346656037}
		m.outputs[fd] = s
	}
	const prime = 1099511628211
	h := s.Hash
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	s.Hash = h
	s.Bytes += uint64(len(p))
	m.counters.OutputBytes += uint64(len(p))
	if m.cfg.CaptureOutput {
		if m.outputData == nil {
			m.outputData = make(map[int][]byte)
		}
		m.outputData[fd] = append(m.outputData[fd], p...)
	}
}
