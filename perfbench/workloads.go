package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"instantcheck"
	"instantcheck/internal/apps"
	"instantcheck/internal/explore"
	"instantcheck/internal/farm"
)

// workload is one traffic mix the benchmark drives. Daemon workloads are
// closed-loop farm jobs against an in-process checkd; races is a sequence
// of library calls. README.md records why each workload exists.
type workload struct {
	name string
	// refs names the references file under refs/. fleet-tr shares
	// table1's: SW-Tr on the fleet must reproduce hwinc's hash logs byte
	// for byte.
	refs string
	// fleet runs checkd as a fleet coordinator with in-process workers.
	fleet bool
	// daemon is false for races, whose ops are library calls.
	daemon bool
	// tracedPasses is the pass count of each phase of a traced run.
	tracedPasses int
	ops          func(seed int64) []op
}

// opKind says how an op executes and what its result is.
type opKind int

const (
	checkOp   opKind = iota // farm check job; result is a checkResult
	exploreOp               // farm explore job; result is a farm.ExploreOutcome
	racesOp                 // ClassifyRaces call; result is a raceResult
)

// op is one unit of closed-loop work: a farm job or a library call.
type op struct {
	name string
	kind opKind
	spec farm.JobSpec // checkOp, exploreOp
	app  *apps.App    // racesOp
	cfg  instantcheck.RaceConfig
}

// checkResult is a check job's verdict fields plus the digest of its
// hash log, the part of a report that must not change.
type checkResult struct {
	Program        string `json:"program"`
	Runs           int    `json:"runs"`
	Points         int    `json:"points"`
	DetPoints      int    `json:"det_points"`
	NDetPoints     int    `json:"ndet_points"`
	Deterministic  bool   `json:"deterministic"`
	DetAtEnd       bool   `json:"det_at_end"`
	FirstNDetRun   int    `json:"first_ndet_run"`
	ShapeMismatch  bool   `json:"shape_mismatch"`
	OutputDistinct int    `json:"output_distinct"`
	HashLogSHA256  string `json:"hashlog_sha256"`
}

// raceResult is a ClassifyRaces outcome reduced to its counts.
type raceResult struct {
	Races         int  `json:"races"`
	Benign        int  `json:"benign"`
	Harmful       int  `json:"harmful"`
	Deterministic bool `json:"deterministic"`
}

// Settings shared by the workloads. Inputs are fixed; --seed only moves
// schedule seeds, by seedStride per unit so two seeds never share one.
const (
	seedStride   = 100000
	checkRuns    = 30 // Table 1: 30 runs x 8 threads (§7.1)
	checkThreads = 8
	huntBudget   = 40 // make exploreeff: budget 40, 4 threads, small inputs, input seed 1
	huntThreads  = 4
	huntInput    = 1
	huntTrials   = 5
	raceRuns     = 10 // instantcheck races defaults: 10 runs, 8 threads
	raceThreads  = 8
)

// huntHosts are the three seeded Figure 7 bugs with the exploreeff
// switch intervals (radix's racy window is wider than the water codes').
var huntHosts = []struct {
	app, bug string
	interval int
}{
	{"waterNS", "semantic", 4000},
	{"waterSP", "atomicity", 4000},
	{"radix", "order", 20000},
}

// tableNondet lists the apps whose Table 1 campaign (hwinc, FP rounding
// where used, no isolation) is nondeterministic at every seed; the other
// ten are deterministic. streamcluster is here for its real bug.
var tableNondet = map[string]bool{
	"cholesky": true, "pbzip2": true, "sphinx3": true, "barnes": true,
	"canneal": true, "radiosity": true, "streamcluster": true,
}

var workloads = []*workload{
	{name: "table1", refs: "table1", daemon: true, tracedPasses: 1, ops: func(seed int64) []op { return checkOps(seed, "hwinc") }},
	{name: "fleet-tr", refs: "table1", daemon: true, fleet: true, tracedPasses: 1, ops: func(seed int64) []op { return checkOps(seed, "swtr") }},
	{name: "hunt", refs: "hunt", daemon: true, tracedPasses: 6, ops: huntOps},
	{name: "races", refs: "races", tracedPasses: 12, ops: raceOps},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// checkOps is one paper-scale check job per app, in Table 1 order.
func checkOps(seed int64, scheme string) []op {
	var ops []op
	for _, a := range apps.Registry() {
		ops = append(ops, op{name: a.Name, kind: checkOp, spec: farm.JobSpec{
			App: a.Name, Runs: checkRuns, Threads: checkThreads, Scheme: scheme,
			RoundFP: a.UsesFP, Seed: seed*seedStride + 1,
		}})
	}
	return ops
}

// huntOps is every (seeded bug, strategy) pair over huntTrials schedule
// seeds, the exploreeff grid as explore jobs.
func huntOps(seed int64) []op {
	var ops []op
	for trial := 0; trial < huntTrials; trial++ {
		for _, h := range huntHosts {
			a := apps.ByName(h.app)
			for _, s := range explore.StrategyNames() {
				ops = append(ops, op{
					name: fmt.Sprintf("%s/%s/t%d", h.app, s, trial),
					kind: exploreOp,
					spec: farm.JobSpec{
						App: h.app, Kind: "explore", Strategy: s, Bug: h.bug,
						Runs: huntBudget, Threads: huntThreads, Small: true, InputSeed: huntInput,
						SwitchInterval: h.interval, RoundFP: a.UsesFP,
						Seed: seed*seedStride + int64(trial)*1000,
					},
				})
			}
		}
	}
	return ops
}

// raceOps is one ClassifyRaces call per app at small inputs: the full
// inputs take ~20 s a pass, too long for one measured run.
func raceOps(seed int64) []op {
	var ops []op
	for _, a := range apps.Registry() {
		ops = append(ops, op{name: a.Name, kind: racesOp, app: a, cfg: instantcheck.RaceConfig{
			Threads: raceThreads, Runs: raceRuns, BaseSeed: seed*seedStride + 1, RoundFP: a.UsesFP,
		}})
	}
	return ops
}

// raceBuilder is the workload builder a races op classifies.
func raceBuilder(o op) func() instantcheck.Program {
	return o.app.Builder(apps.Options{Threads: o.cfg.Threads, Small: true})
}

// refs maps seed -> op name -> recorded result JSON.
type refs map[string]map[string]json.RawMessage

func refsPath(dir, name string) string { return filepath.Join(dir, name+".json") }

// loadRefs reads the references file name (a workload's refs).
func loadRefs(dir, name string) (refs, error) {
	data, err := os.ReadFile(refsPath(dir, name))
	if os.IsNotExist(err) {
		return refs{}, nil
	}
	if err != nil {
		return nil, err
	}
	var r refs
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("references %s: %w", refsPath(dir, name), err)
	}
	return r, nil
}

// checker compares op results with the references of one seed, or with
// the seed-independent facts when the seed has none.
type checker struct {
	ref map[string]json.RawMessage // nil: weak check
}

func newChecker(r refs, seed int64) checker {
	return checker{ref: r[strconv.FormatInt(seed, 10)]}
}

func (c checker) weak() bool { return c.ref == nil }

// check returns nil when res is the expected result of o.
func (c checker) check(o op, res any) error {
	if c.ref != nil {
		want, ok := c.ref[o.name]
		if !ok {
			return fmt.Errorf("%s: no reference recorded", o.name)
		}
		got, err := json.Marshal(res)
		if err != nil {
			return err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, want); err != nil {
			return err
		}
		if !bytes.Equal(got, compact.Bytes()) {
			return fmt.Errorf("%s: got %s, reference %s", o.name, got, compact.Bytes())
		}
		return nil
	}
	switch r := res.(type) {
	case checkResult:
		if r.Deterministic == tableNondet[o.spec.App] {
			return fmt.Errorf("%s: deterministic=%v, Table 1 says %v", o.name, r.Deterministic, !tableNondet[o.spec.App])
		}
		if r.Runs != checkRuns || r.Points == 0 || r.ShapeMismatch {
			return fmt.Errorf("%s: malformed report %+v", o.name, r)
		}
	case farm.ExploreOutcome:
		ok := r.Strategy == o.spec.Strategy && r.Budget == huntBudget &&
			r.Runs >= 1 && r.Runs <= r.Budget && r.Found == (r.DivergedRun > 0) &&
			(!r.Found || r.DivergedRun == r.Runs) && (r.Found || r.Runs == r.Budget)
		if !ok {
			return fmt.Errorf("%s: inconsistent outcome %+v", o.name, r)
		}
	case raceResult:
		if r.Benign+r.Harmful != r.Races || (r.Deterministic && r.Harmful != 0) {
			return fmt.Errorf("%s: inconsistent classification %+v", o.name, r)
		}
	default:
		return fmt.Errorf("%s: unexpected result type %T", o.name, res)
	}
	return nil
}
