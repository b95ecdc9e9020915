// Package core implements InstantCheck itself: the determinism checker that
// runs a parallel program many times for one input under a randomized
// serializing scheduler, captures a 64-bit State Hash at every checkpoint
// (each dynamic barrier episode and the end of the run), and compares the
// hashes across runs (paper §2).
//
// If two runs produce different hashes at some checkpoint, the program is
// externally nondeterministic at that point. If all runs agree at every
// checkpoint, the program is externally deterministic within the coverage
// of the test campaign. Hash comparison has no false positives (equal
// states always hash equal) and a 2^-64 false-negative probability per
// comparison.
//
// The package also implements the paper's determinism taxonomy (Table 1) —
// bit-by-bit deterministic, deterministic after FP rounding, deterministic
// after isolating small nondeterministic structures, nondeterministic — and
// the Figure 6 instruction-count overhead model for the four evaluated
// configurations.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"instantcheck/internal/fpround"
	"instantcheck/internal/ihash"
	"instantcheck/internal/sim"
)

// Campaign configures one determinism-checking campaign: N runs of the same
// program with the same input, differing only in schedule seed.
type Campaign struct {
	// Runs is the number of test runs (the paper uses 30).
	Runs int
	// Threads is the worker thread count (the paper uses 8).
	Threads int
	// BaseScheduleSeed derives the per-run schedule seeds (seed + run index).
	BaseScheduleSeed int64
	// InputSeed fixes the program input (env-call record stream).
	InputSeed int64
	// SwitchInterval is the scheduler's mean preemption interval
	// (<= 0 selects the default).
	SwitchInterval int
	// Scheme selects the hashing scheme (default HWInc).
	Scheme sim.Scheme
	// Hasher is the location hash (nil selects ihash.Mix64).
	Hasher ihash.Hasher
	// RoundFP enables the FP round-off unit for the whole campaign.
	RoundFP bool
	// Rounding is the round-off policy (zero value selects the paper
	// default, floor to 0.001, when RoundFP is set).
	Rounding fpround.Policy
	// Ignore deletes explicitly-specified structures from every hash.
	Ignore *sim.IgnoreSet
	// SnapshotDifferingRuns re-executes the first two differing runs with
	// full state capture at the first differing checkpoint, for the
	// state-diff debugging tool (§2.3). It costs two extra runs.
	SnapshotDifferingRuns bool
}

// withDefaults fills zero fields with the paper's defaults and rejects
// configurations that are nonsensical rather than merely unset.
func (c Campaign) withDefaults() (Campaign, error) {
	if c.Runs == 0 {
		c.Runs = 30
	}
	if c.Runs <= 0 {
		return c, fmt.Errorf("core: campaign Runs = %d; want > 0", c.Runs)
	}
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Threads < 0 {
		return c, fmt.Errorf("core: campaign Threads = %d; want > 0", c.Threads)
	}
	if c.Scheme == sim.Native {
		c.Scheme = sim.HWInc
	}
	if c.RoundFP && !c.Rounding.Enabled() {
		c.Rounding = fpround.Default
	}
	return c, nil
}

// Builder constructs a fresh Program instance for one run. It is called
// once per run so that program-held handles reset between runs.
type Builder func() sim.Program

// CheckpointStat summarizes one checkpoint ordinal across all runs. Its
// JSON form is an element of the farm report's "stats".
type CheckpointStat struct {
	// Ordinal is the checkpoint's dynamic index.
	Ordinal int `json:"ordinal"`
	// Label is the checkpoint label (barrier name or "end").
	Label string `json:"label"`
	// Distribution counts runs per distinct State Hash, sorted descending:
	// [30] means fully deterministic, [16 11 3] means three distinct
	// states were observed (the D5 example of Figure 5).
	Distribution []int `json:"distribution"`
	// Deterministic is true when all runs agreed.
	Deterministic bool `json:"deterministic"`
}

// DistKey returns the distribution as a canonical "16/11/3" string, the
// form the paper's Figures 5 and 8 plot.
func (s CheckpointStat) DistKey() string {
	parts := make([]string, len(s.Distribution))
	for i, n := range s.Distribution {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, "/")
}

// DistGroup aggregates checkpoints sharing one distribution shape — one bar
// group of Figure 5/8 ("156 checking points with distribution 16/11/3").
type DistGroup struct {
	// Distribution is the shared shape, descending.
	Distribution []int `json:"distribution"`
	// Checkpoints is how many checkpoint ordinals exhibit it.
	Checkpoints int `json:"checkpoints"`
}

// Report is the outcome of a campaign.
type Report struct {
	// Program is the checked program's name.
	Program string
	// Campaign echoes the configuration used.
	Campaign Campaign
	// Runs holds each run's result, in run order: set by Check and
	// Assemble, nil in a report a Fold built on its own.
	Runs []*sim.Result
	// Stats summarizes each checkpoint ordinal across runs. When runs
	// disagree on the number of checkpoints (ShapeMismatch), Stats covers
	// the common prefix.
	Stats []CheckpointStat
	// DetPoints and NDetPoints count deterministic / nondeterministic
	// dynamic checking points (Table 1 columns 10–11).
	DetPoints int
	// NDetPoints counts checkpoints where at least two runs differed.
	NDetPoints int
	// DetAtEnd reports whether the final checkpoint was deterministic.
	DetAtEnd bool
	// FirstNDetRun is the 1-based index of the first run whose hash vector
	// differs from run 1's — how fast the programmer finds out (§7.2.2).
	// 0 means no nondeterminism was detected.
	FirstNDetRun int
	// ShapeMismatch is true when runs produced different checkpoint
	// counts (itself a form of nondeterminism).
	ShapeMismatch bool
	// OutputDistinct counts distinct output-stream hashes across runs
	// (1 means deterministic output, 0 means no output, §4.3).
	OutputDistinct int
	// DiffSnapshots, when Campaign.SnapshotDifferingRuns was set and
	// nondeterminism was found, holds the state-diff capture of the first
	// differing checkpoint (see FirstDiff).
	DiffSnapshots *DiffCapture
}

// Deterministic reports whether every checkpoint agreed in every run.
func (r *Report) Deterministic() bool {
	return !r.ShapeMismatch && r.NDetPoints == 0
}

// Points returns the number of dynamic checking points compared.
func (r *Report) Points() int { return len(r.Stats) }

// FirstNDetPoint returns the ordinal of the first nondeterministic
// checkpoint, or -1 if none.
func (r *Report) FirstNDetPoint() int {
	for _, s := range r.Stats {
		if !s.Deterministic {
			return s.Ordinal
		}
	}
	return -1
}

// DistGroups groups checkpoints by distribution shape, most-populous first —
// the data behind Figures 5 and 8.
func (r *Report) DistGroups() []DistGroup {
	byKey := make(map[string]*DistGroup)
	var order []string
	for _, s := range r.Stats {
		k := s.DistKey()
		g := byKey[k]
		if g == nil {
			g = &DistGroup{Distribution: s.Distribution}
			byKey[k] = g
			order = append(order, k)
		}
		g.Checkpoints++
	}
	out := make([]DistGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Checkpoints > out[j].Checkpoints })
	return out
}

// NDetDistGroups returns only the groups with more than one distinct state.
func (r *Report) NDetDistGroups() []DistGroup {
	var out []DistGroup
	for _, g := range r.DistGroups() {
		if len(g.Distribution) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// Check runs the campaign and compares hashes across runs: the recording
// run, then the replay runs on one worker per core (Runner.ReplayAll at
// runtime.GOMAXPROCS(0) width), then Assemble. A replay run depends only
// on the recording and its run index, so the report does not depend on
// the pool's width.
func (c Campaign) Check(build Builder) (*Report, error) {
	r, err := c.NewRunner(build)
	if err != nil {
		return nil, err
	}
	c = r.Campaign()
	results := make([]*sim.Result, c.Runs)
	if results[0], err = r.Record(); err != nil {
		return nil, err
	}
	replays := make([]int, 0, c.Runs-1)
	for run := 1; run < c.Runs; run++ {
		replays = append(replays, run)
	}
	err = r.ReplayAll(context.TODO(), replays, runtime.GOMAXPROCS(0),
		func(run int, res *sim.Result, _ time.Duration) error {
			results[run] = res
			return nil
		})
	if err != nil {
		return nil, err
	}
	rep, err := c.Assemble(r.Name(), results)
	if err != nil {
		return nil, err
	}
	if c.SnapshotDifferingRuns && rep.FirstNDetRun > 0 {
		if err := c.captureDiff(build, rep); err != nil {
			return nil, fmt.Errorf("core: state-diff capture: %w", err)
		}
	}
	return rep, nil
}

// Fold builds a campaign's report one run at a time, so a caller that
// streams runs in holds per-checkpoint tallies instead of every run's
// checkpoint vector. Run 0, the recording run, comes first; the replay
// runs follow in any order. Every statistic is commutative over the
// replay runs (FirstNDetRun is the least differing run), so the report
// does not depend on their order.
type Fold struct {
	rep *Report
	// tallies holds one entry per checkpoint of run 0.
	tallies []tally
	// points is the least checkpoint count folded so far.
	points    int
	seen      []bool
	folded    int
	outputs   map[string]bool
	sawOutput bool
}

// tally counts the runs per distinct State Hash at one checkpoint ordinal.
// Its first entry is run 0's hash.
type tally struct {
	label  string
	counts []shCount
}

type shCount struct {
	sh ihash.Digest
	n  int
}

// NewFold starts the report of a campaign on the named program.
func (c Campaign) NewFold(program string) (*Fold, error) {
	c, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Fold{
		rep:     &Report{Program: program, Campaign: c},
		seen:    make([]bool, c.Runs),
		outputs: make(map[string]bool),
	}, nil
}

// Add folds in the result of run (0-based). Run 0 must come first, and
// each run once.
func (f *Fold) Add(run int, res *sim.Result) error {
	switch {
	case run < 0 || run >= len(f.seen):
		return fmt.Errorf("core: fold: run %d out of range [1, %d]", run+1, len(f.seen))
	case f.seen[run]:
		return fmt.Errorf("core: fold: run %d folded twice", run+1)
	case run != 0 && !f.seen[0]:
		return fmt.Errorf("core: fold: run %d before run 1", run+1)
	}
	f.seen[run] = true
	f.folded++
	cps := res.Checkpoints
	if run == 0 {
		f.points = len(cps)
		f.tallies = make([]tally, len(cps))
		for j, cp := range cps {
			f.tallies[j] = tally{label: cp.Label, counts: []shCount{{cp.SH, 1}}}
		}
	} else {
		differs := len(cps) != len(f.tallies)
		if differs {
			f.rep.ShapeMismatch = true
			f.points = min(f.points, len(cps))
		}
		for j := range min(len(cps), len(f.tallies)) {
			t := &f.tallies[j]
			sh := cps[j].SH
			differs = differs || sh != t.counts[0].sh
			i := 0
			for i < len(t.counts) && t.counts[i].sh != sh {
				i++
			}
			if i == len(t.counts) {
				t.counts = append(t.counts, shCount{sh: sh})
			}
			t.counts[i].n++
		}
		if differs && (f.rep.FirstNDetRun == 0 || run+1 < f.rep.FirstNDetRun) {
			f.rep.FirstNDetRun = run + 1
		}
	}
	if res.OutputBytes > 0 {
		f.sawOutput = true
	}
	f.outputs[outputSignature(res.Outputs)] = true
	return nil
}

// Report returns the campaign's report once every run is folded in. Its
// Runs field is nil: the fold keeps no run.
func (f *Fold) Report() (*Report, error) {
	if f.folded != len(f.seen) {
		return nil, fmt.Errorf("core: fold: %d of %d runs folded", f.folded, len(f.seen))
	}
	rep := f.rep
	for ord, t := range f.tallies[:f.points] {
		dist := make([]int, len(t.counts))
		for i, c := range t.counts {
			dist[i] = c.n
		}
		sort.Sort(sort.Reverse(sort.IntSlice(dist)))
		st := CheckpointStat{
			Ordinal:       ord,
			Label:         t.label,
			Distribution:  dist,
			Deterministic: len(dist) == 1,
		}
		rep.Stats = append(rep.Stats, st)
		if st.Deterministic {
			rep.DetPoints++
		} else {
			rep.NDetPoints++
		}
	}
	if f.points > 0 {
		rep.DetAtEnd = rep.Stats[f.points-1].Deterministic && !rep.ShapeMismatch
	}
	if f.sawOutput {
		rep.OutputDistinct = len(f.outputs)
	}
	return rep, nil
}

// outputSignature canonicalizes a run's per-descriptor stream hashes so
// output determinism is judged across all descriptors (§4.3).
func outputSignature(outs map[int]sim.OutputStream) string {
	if len(outs) == 0 {
		return ""
	}
	fds := make([]int, 0, len(outs))
	for fd := range outs {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	var sb strings.Builder
	for _, fd := range fds {
		fmt.Fprintf(&sb, "%d:%016x;", fd, outs[fd].Hash)
	}
	return sb.String()
}
