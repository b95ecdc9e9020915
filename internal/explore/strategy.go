package explore

import (
	"fmt"
	"math/rand"
	"strings"

	"instantcheck/internal/ihash"
	"instantcheck/internal/racefilter"
	"instantcheck/internal/replay"
	"instantcheck/internal/sched"
	"instantcheck/internal/sim"
)

// Plan describes how one run's schedule is generated.
type Plan struct {
	// Decider, when non-nil, drives the scheduler directly (PCT,
	// prefix-replay). Nil selects the seeded random decider.
	Decider sched.Decider
	// Seed is the schedule seed for the random decider (ignored when
	// Decider is set).
	Seed int64
	// Hook, when non-nil, observes every checkpoint of the run in order
	// (coverage strategies snapshot their decision streams here).
	Hook func(cp sim.Checkpoint)
	// Events, when non-nil, is attached as the run's event listener
	// (race detection, directed preemption).
	Events sim.EventListener
}

// Strategy generates the schedule for each run of an exploration and
// learns from the results. Implementations are driven sequentially by
// Explore — Plan(run) before the run, Observe(run) after — and need not
// be safe for concurrent use.
type Strategy interface {
	// Name is the strategy's wire name, used as a metric label value.
	Name() string
	// Plan produces run's schedule plan. Runs are numbered from 0.
	Plan(run int) Plan
	// Observe feeds back the completed run's result.
	Observe(run int, res *sim.Result)
}

// hitCounter is implemented by strategies that count directed preemptions.
type hitCounter interface {
	hits() int
}

// Outcome summarizes an exploration campaign: how hard the strategy had
// to work to surface nondeterminism, and how much of the outcome space it
// covered while trying. Its JSON form is the farm report's "explore"
// block and the store's "explored" record.
type Outcome struct {
	// Strategy is the generating strategy's name.
	Strategy string `json:"strategy"`
	// Budget is the run budget the campaign was given.
	Budget int `json:"budget"`
	// Runs is the number of runs executed (<= Budget; the campaign stops
	// at the first divergence).
	Runs int `json:"runs"`
	// Found is true when some checkpoint hashed differently across runs —
	// the InstantCheck nondeterminism verdict.
	Found bool `json:"found"`
	// DivergedRun is the 1-based run where the first divergence appeared
	// (0 when Found is false) — the runs-to-detect measurement.
	DivergedRun int `json:"diverged_run,omitempty"`
	// DistinctOutcomes counts distinct (checkpoint ordinal, State Hash)
	// pairs across all runs — the coverage signal of §6.2.
	DistinctOutcomes int `json:"distinct_outcomes"`
	// DistinctFinals counts distinct final State Hashes.
	DistinctFinals int `json:"distinct_finals"`
	// Hits counts directed preemptions (race-directed strategy only).
	Hits int `json:"hits,omitempty"`
}

// Explore runs up to maxRuns schedules generated by strat and stops at
// the first cross-run State-Hash divergence. All runs share the recorded
// input environment, so schedule choice is the only nondeterminism source
// (§5). onRun, when non-nil, is called after every executed run — the
// farm's store append hook; its error aborts the campaign. Before the
// first run it rejects a budget below 1 and a thread count outside
// 1..racefilter.MaxThreads, the race detector's bound.
func Explore(build func() sim.Program, o Options, strat Strategy, maxRuns int,
	onRun func(run int, res *sim.Result) error) (*Outcome, error) {

	if o.Threads < 1 || o.Threads > racefilter.MaxThreads {
		return nil, fmt.Errorf("explore: threads = %d; want 1 to %d", o.Threads, racefilter.MaxThreads)
	}
	if maxRuns <= 0 {
		return nil, fmt.Errorf("explore: run budget must be positive")
	}
	scheme := o.Scheme
	if scheme == sim.Native {
		scheme = sim.HWInc
	}
	env := replay.NewEnv(o.InputSeed)
	addrLog := replay.NewAddrLog()

	out := &Outcome{Strategy: strat.Name(), Budget: maxRuns}
	firstAt := make(map[int]ihash.Digest) // ordinal -> first hash seen
	seen := make(map[stateKey]bool)
	finals := make(map[ihash.Digest]bool)
	shape := -1
	for run := 0; run < maxRuns; run++ {
		p := strat.Plan(run)
		cfg := sim.Config{
			Threads:        o.Threads,
			Scheme:         scheme,
			Hasher:         o.Hasher,
			RoundFP:        o.RoundFP,
			Ignore:         o.Ignore,
			SwitchInterval: o.SwitchInterval,
			Env:            env,
			AddrLog:        addrLog,
			Events:         p.Events,
		}
		if p.Decider != nil {
			cfg.Decider = p.Decider
		} else {
			cfg.ScheduleSeed = p.Seed
		}
		if hook := p.Hook; hook != nil {
			cfg.CheckpointHook = func(cp sim.Checkpoint) error {
				hook(cp)
				return nil
			}
		}
		r, err := sim.NewMachine(cfg).Run(build())
		out.Runs = run + 1
		if err != nil {
			return nil, fmt.Errorf("explore: %s run %d: %w", strat.Name(), run+1, err)
		}
		strat.Observe(run, r)
		if onRun != nil {
			if err := onRun(run, r); err != nil {
				return nil, err
			}
		}

		diverged := false
		if shape < 0 {
			shape = len(r.Checkpoints)
		} else if len(r.Checkpoints) != shape {
			diverged = true // checkpoint-count mismatch (e.g. a skipped barrier)
		}
		for _, cp := range r.Checkpoints {
			if h, ok := firstAt[cp.Ordinal]; ok {
				if h != cp.SH {
					diverged = true
				}
			} else {
				firstAt[cp.Ordinal] = cp.SH
			}
			seen[stateKey{cp.Ordinal, cp.SH}] = true
		}
		finals[r.FinalSH()] = true
		if diverged && !out.Found {
			out.Found = true
			out.DivergedRun = run + 1
			break
		}
	}
	out.DistinctOutcomes = len(seen)
	out.DistinctFinals = len(finals)
	if hc, ok := strat.(hitCounter); ok {
		out.Hits = hc.hits()
	}
	return out, nil
}

// ---- uniform random ----

// uniformStrategy is the paper's §7.1 baseline, extracted: run i executes
// under schedule seed base+i+1 with uniformly random switch decisions.
type uniformStrategy struct{ base int64 }

// Uniform returns the uniform-random baseline strategy.
func Uniform(baseSeed int64) Strategy { return &uniformStrategy{base: baseSeed} }

func (s *uniformStrategy) Name() string             { return "uniform" }
func (s *uniformStrategy) Plan(run int) Plan        { return Plan{Seed: s.base + int64(run) + 1} }
func (s *uniformStrategy) Observe(int, *sim.Result) {}

// ---- PCT ----

// pctStrategy wraps sched.PCT: run 0 is a uniform calibration run whose
// scheduler-op count sizes the change-point budget; every later run draws
// fresh priorities and change points from its own seed.
type pctStrategy struct {
	threads  int
	base     int64
	depth    int
	estimate uint64
}

// DefaultPCTDepth is the number of priority-change points used when the
// caller does not choose one; the seeded Figure 7 bugs are depth-2
// ordering/atomicity violations, and a little headroom is cheap.
const DefaultPCTDepth = 3

// MaxPCTDepth is the largest priority-change point count the checkfarm
// accepts for a pct job. A depth-d PCT run hits a given d-point bug window
// with probability about 1/(n·k^(d-1)), so depths past a handful only
// dilute the search.
const MaxPCTDepth = 64

// NewPCTStrategy returns the PCT priority-scheduling strategy with d
// priority-change points (d <= 0 selects DefaultPCTDepth). The operation
// budget the change points are spread over is calibrated from a uniform
// first run.
func NewPCTStrategy(threads int, baseSeed int64, d int) Strategy {
	if d <= 0 {
		d = DefaultPCTDepth
	}
	return &pctStrategy{threads: threads, base: baseSeed, depth: d}
}

func (s *pctStrategy) Name() string { return "pct" }

func (s *pctStrategy) Plan(run int) Plan {
	if run == 0 {
		return Plan{Seed: s.base + 1} // calibration run, uniform
	}
	return Plan{Decider: sched.NewPCT(s.threads, s.depth, s.budget(), s.base+int64(run)+1)}
}

func (s *pctStrategy) budget() uint64 {
	if s.estimate > 0 {
		return s.estimate
	}
	return 1 << 16
}

func (s *pctStrategy) Observe(run int, res *sim.Result) {
	if run == 0 {
		s.estimate = res.Counters.SchedOps
	}
}

// ---- race-directed ----

// raceDirectedStrategy is the directed search as a strategy: the first
// raceDetectRuns runs execute under the FastTrack happens-before detector
// (internal/racefilter), and every site of the racy pairs it reports
// becomes a preemption hint for the runs after them.
type raceDirectedStrategy struct {
	threads int
	base    int64
	sites   map[string]bool

	detector *racefilter.Detector
	director *raceDirector
	nhits    int
}

// raceDetectRuns is the number of detection runs; the HB detector finds
// unordered access pairs whether or not the race manifests, so a couple
// of schedules suffice.
const raceDetectRuns = 2

// RaceDirected returns the race-directed strategy.
func RaceDirected(threads int, baseSeed int64) Strategy {
	return &raceDirectedStrategy{threads: threads, base: baseSeed, sites: make(map[string]bool)}
}

func (s *raceDirectedStrategy) Name() string { return "race-directed" }

func (s *raceDirectedStrategy) Plan(run int) Plan {
	seed := s.base + int64(run) + 1
	if run < raceDetectRuns {
		s.detector = racefilter.NewDetector(s.threads)
		return Plan{Seed: seed, Events: s.detector}
	}
	s.detector = nil
	if len(s.sites) == 0 {
		return Plan{Seed: seed} // nothing to direct at; plain uniform run
	}
	s.director = &raceDirector{sites: s.sites, pcs: make(map[uintptr]bool)}
	return Plan{Seed: seed, Events: s.director}
}

func (s *raceDirectedStrategy) Observe(run int, res *sim.Result) {
	if s.detector != nil {
		for _, r := range s.detector.Races() {
			s.sites[r.SiteA] = true
			s.sites[r.SiteB] = true
		}
		s.detector = nil
	}
	if s.director != nil {
		s.nhits += s.director.hits
		s.director = nil
	}
}

func (s *raceDirectedStrategy) hits() int { return s.nhits }

// ---- coverage-guided ----

// recDecider is the random decider with a tape: every switch budget and
// pick is recorded, and a scripted prefix of both streams is consumed
// before fresh randomness — replaying a prefix reproduces the execution
// up to the recorded point exactly, then explores onward. This is the
// mutation operator of the coverage-guided strategy.
type recDecider struct {
	rng      *rand.Rand
	interval int
	preB     []int // scripted budget prefix
	preP     []int // scripted pick prefix
	budgets  []int
	picks    []int
}

func newRecDecider(seed int64, interval int, preB, preP []int) *recDecider {
	if interval <= 0 {
		interval = 8
	}
	return &recDecider{rng: rand.New(rand.NewSource(seed)), interval: interval, preB: preB, preP: preP}
}

func (d *recDecider) SwitchBudget() int {
	var b int
	if i := len(d.budgets); i < len(d.preB) {
		b = d.preB[i]
	} else {
		b = 1 + d.rng.Intn(2*d.interval)
	}
	d.budgets = append(d.budgets, b)
	return b
}

func (d *recDecider) Pick(_ int, runnable []int) int {
	n := len(runnable)
	var c int
	if i := len(d.picks); i < len(d.preP) {
		c = d.preP[i]
		if c >= n || c < 0 {
			// Stale prefix (different tree shape); fall back to random so
			// the run still makes progress. Coverage selection tolerates
			// the resulting schedule being off-script — any novel hash it
			// produces is still real coverage.
			c = d.rng.Intn(n)
		}
	} else {
		c = d.rng.Intn(n)
	}
	d.picks = append(d.picks, c)
	return runnable[c]
}

// frontierEntry is one kept prefix: the decision streams up to a
// checkpoint that produced a never-seen (ordinal, hash) outcome.
type frontierEntry struct {
	budgets []int
	picks   []int
}

// coverageFrontierCap bounds the frontier; the most recent novel prefixes
// win, matching the intuition that fresh coverage clusters.
const coverageFrontierCap = 64

// coverageStrategy feeds distinct (checkpoint ordinal, State Hash)
// outcomes back into schedule selection: a run that reaches a never-seen
// quiescent state keeps its decision prefix up to that checkpoint in the
// frontier, and later runs replay a frontier prefix before continuing
// with fresh randomness — the State-Hash-as-coverage-signal idea §6.2
// enables, in fuzzer form.
type coverageStrategy struct {
	base     int64
	interval int

	seen     map[stateKey]bool
	frontier []frontierEntry
	nextPick int

	cur   *recDecider // decider of the in-flight run
	marks []mark      // checkpoint -> decision-stream lengths, in order
}

// mark snapshots the decision streams at one checkpoint boundary.
type mark struct{ nb, np int }

// CoverageGuided returns the coverage-guided strategy. interval is the
// random decider's switch interval (<= 0 selects the scheduler default).
func CoverageGuided(baseSeed int64, interval int) Strategy {
	return &coverageStrategy{base: baseSeed, interval: interval, seen: make(map[stateKey]bool)}
}

func (s *coverageStrategy) Name() string { return "coverage" }

func (s *coverageStrategy) Plan(run int) Plan {
	seed := s.base + int64(run) + 1
	var preB, preP []int
	if run > 0 && len(s.frontier) > 0 {
		e := s.frontier[s.nextPick%len(s.frontier)]
		s.nextPick++
		preB, preP = e.budgets, e.picks
	}
	s.cur = newRecDecider(seed, s.interval, preB, preP)
	s.marks = s.marks[:0]
	return Plan{
		Decider: s.cur,
		Hook: func(sim.Checkpoint) {
			s.marks = append(s.marks, mark{nb: len(s.cur.budgets), np: len(s.cur.picks)})
		},
	}
}

func (s *coverageStrategy) Observe(run int, res *sim.Result) {
	// marks[i] aligns with res.Checkpoints[i]: the hook fires once per
	// checkpoint, in order.
	for i, cp := range res.Checkpoints {
		if cp.Label == "end" {
			continue // the end state has no continuation to explore
		}
		key := stateKey{cp.Ordinal, cp.SH}
		if s.seen[key] || i >= len(s.marks) {
			continue
		}
		s.seen[key] = true
		mk := s.marks[i]
		s.frontier = append(s.frontier, frontierEntry{
			budgets: append([]int(nil), s.cur.budgets[:mk.nb]...),
			picks:   append([]int(nil), s.cur.picks[:mk.np]...),
		})
		if len(s.frontier) > coverageFrontierCap {
			s.frontier = s.frontier[len(s.frontier)-coverageFrontierCap:]
		}
	}
}

// ---- registry ----

// StrategyNames lists the wire names NewStrategy accepts.
func StrategyNames() []string {
	return []string{"uniform", "pct", "race-directed", "coverage"}
}

// NewStrategy builds a strategy from its wire name. o supplies threads,
// the base schedule seed and the switch interval; pctDepth (<= 0 for the
// default) applies to "pct" only.
func NewStrategy(name string, o Options, pctDepth int) (Strategy, error) {
	switch name {
	case "", "uniform":
		return Uniform(o.ScheduleSeed), nil
	case "pct":
		return NewPCTStrategy(o.Threads, o.ScheduleSeed, pctDepth), nil
	case "race-directed":
		return RaceDirected(o.Threads, o.ScheduleSeed), nil
	case "coverage":
		return CoverageGuided(o.ScheduleSeed, o.SwitchInterval), nil
	default:
		return nil, fmt.Errorf("explore: unknown strategy %q (want %s)",
			name, strings.Join(StrategyNames(), ", "))
	}
}
