package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"instantcheck/internal/explore"
	"instantcheck/internal/farm"
	"instantcheck/internal/mhm"
	"instantcheck/internal/racefilter"
	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// probe drives the layers under one pass of a workload directly, on each
// op's own JobSpec, timing every call and summing the simulator's counters.
// Its counts are deterministic: they depend on the seed alone.
type probe struct {
	c        sim.Counters // summed; PerThread is not kept
	mhm      mhm.Stats
	det      racefilter.DetectorStats
	runs     int
	record   []float64 // seconds per Record call
	replay   []float64 // seconds per Replay call
	assemble float64   // seconds in Assemble, summed
	// explore ops
	exploreRuns, distinct, hints int
	strategies                   map[string]int // runs per strategy
}

func (p *probe) add(res *sim.Result) {
	c := &res.Counters
	p.c.Instr += c.Instr
	p.c.Loads += c.Loads
	p.c.Stores += c.Stores
	p.c.SchedOps += c.SchedOps
	p.c.FastLoadMisses += c.FastLoadMisses
	p.c.FastStoreMisses += c.FastStoreMisses
	p.c.TraverseRunsHashed += c.TraverseRunsHashed
	p.c.TraverseShardedSweeps += c.TraverseShardedSweeps
	p.c.TraverseFullSweeps += c.TraverseFullSweeps
	p.c.TraverseDeltaSweeps += c.TraverseDeltaSweeps
	p.c.TraverseDirtyPages += c.TraverseDirtyPages
	p.c.TraverseLivePages += c.TraverseLivePages
	p.c.StoreBufferFlushes += c.StoreBufferFlushes
	p.c.EventReads += c.EventReads
	p.c.EventWrites += c.EventWrites
	p.mhm.Add(res.MHMStats)
	p.runs++
}

func (p *probe) addDetector(st racefilter.DetectorStats) {
	p.det.ReadFast += st.ReadFast
	p.det.ReadSlow += st.ReadSlow
	p.det.WriteFast += st.WriteFast
	p.det.WriteSlow += st.WriteSlow
	p.det.ReadSpills += st.ReadSpills
	p.det.ShadowPages += st.ShadowPages
}

// runProbe probes one pass over ops. want maps op names to the results
// the farm produced for them; the probe must reproduce each one.
func runProbe(ops []op, want map[string]any) (*probe, error) {
	p := &probe{strategies: make(map[string]int)}
	for _, o := range ops {
		var err error
		switch o.kind {
		case checkOp:
			err = p.check(o, want[o.name])
		case exploreOp:
			err = p.explore(o, want[o.name])
		case racesOp:
			err = p.races(o)
		}
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", o.name, err)
		}
	}
	return p, nil
}

// check runs a check op's campaign through core's Runner protocol:
// Record, then the replays on GOMAXPROCS goroutines, then Assemble.
func (p *probe) check(o op, want any) error {
	camp, build, err := o.spec.Resolve()
	if err != nil {
		return err
	}
	runner, err := camp.NewRunner(build)
	if err != nil {
		return err
	}
	camp = runner.Campaign()
	results := make([]*sim.Result, camp.Runs)
	start := time.Now()
	if results[0], err = runner.Record(); err != nil {
		return err
	}
	p.record = append(p.record, time.Since(start).Seconds())

	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range next {
				start := time.Now()
				res, err := runner.Replay(run)
				d := time.Since(start).Seconds()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				results[run] = res
				p.replay = append(p.replay, d)
				mu.Unlock()
			}
		}()
	}
	for run := 1; run < camp.Runs; run++ {
		next <- run
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	start = time.Now()
	rep, err := camp.Assemble(runner.Name(), results)
	if err != nil {
		return err
	}
	p.assemble += time.Since(start).Seconds()
	for _, res := range results {
		p.add(res)
	}
	if w, ok := want.(checkResult); ok && (w.Deterministic != rep.Deterministic() || w.Points != rep.Points()) {
		return fmt.Errorf("verdict deterministic=%v points=%d, the farm reported %v and %d",
			rep.Deterministic(), rep.Points(), w.Deterministic, w.Points)
	}
	return nil
}

// explore runs an explore op's search the way the farm's explore jobs do.
func (p *probe) explore(o op, want any) error {
	camp, build, err := o.spec.Resolve()
	if err != nil {
		return err
	}
	opts := explore.Options{
		Threads:        camp.Threads,
		Scheme:         camp.Scheme,
		RoundFP:        camp.RoundFP,
		InputSeed:      camp.InputSeed,
		SwitchInterval: camp.SwitchInterval,
		ScheduleSeed:   camp.BaseScheduleSeed,
		Hasher:         camp.Hasher,
		Ignore:         camp.Ignore,
	}
	strat, err := explore.NewStrategy(o.spec.Strategy, opts, o.spec.PCTDepth)
	if err != nil {
		return err
	}
	out, err := explore.Explore(build, opts, strat, camp.Runs, func(run int, res *sim.Result) error {
		p.add(res)
		return nil
	})
	if err != nil {
		return err
	}
	p.exploreRuns += out.Runs
	p.distinct += out.DistinctOutcomes
	p.hints += out.Hits
	p.strategies[out.Strategy] += out.Runs
	if w, ok := want.(farm.ExploreOutcome); ok && (w.Runs != out.Runs || w.Found != out.Found || w.DivergedRun != out.DivergedRun) {
		return fmt.Errorf("search ran %d runs (found %v at %d), the farm's ran %d (found %v at %d)",
			out.Runs, out.Found, out.DivergedRun, w.Runs, w.Found, w.DivergedRun)
	}
	return nil
}

// races runs a races op's detection runs with an epoch detector attached,
// then its state-comparison runs, as ClassifyRaces does.
func (p *probe) races(o op) error {
	build := raceBuilder(o)
	for _, detect := range []bool{true, false} {
		env := replay.NewEnv(o.cfg.InputSeed)
		addrLog := replay.NewAddrLog()
		for run := 0; run < o.cfg.Runs; run++ {
			cfg := sim.Config{
				Threads:      o.cfg.Threads,
				ScheduleSeed: o.cfg.BaseSeed + int64(run),
				Scheme:       sim.HWInc,
				RoundFP:      o.cfg.RoundFP,
				Env:          env,
				AddrLog:      addrLog,
			}
			var det *racefilter.Detector
			if detect {
				det = racefilter.NewDetector(o.cfg.Threads)
				cfg.Events = det
			}
			res, err := sim.NewMachine(cfg).Run(build())
			if err != nil {
				return err
			}
			p.add(res)
			if det != nil {
				p.addDetector(det.Stats())
			}
		}
	}
	return nil
}
