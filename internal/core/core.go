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
	// Runs holds each run's result, in run order.
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

func (c Campaign) summarize(rep *Report) {
	if len(rep.Runs) == 0 {
		return
	}
	points := len(rep.Runs[0].Checkpoints)
	for _, r := range rep.Runs[1:] {
		if len(r.Checkpoints) != points {
			rep.ShapeMismatch = true
			if len(r.Checkpoints) < points {
				points = len(r.Checkpoints)
			}
		}
	}
	base := rep.Runs[0].SHVector()
	for i, r := range rep.Runs {
		if i == 0 {
			continue
		}
		if rep.FirstNDetRun != 0 {
			break
		}
		v := r.SHVector()
		if len(v) != len(base) {
			rep.FirstNDetRun = i + 1
			break
		}
		for j := range v {
			if v[j] != base[j] {
				rep.FirstNDetRun = i + 1
				break
			}
		}
	}
	outputs := make(map[string]bool)
	sawOutput := false
	for _, r := range rep.Runs {
		if r.OutputBytes > 0 {
			sawOutput = true
		}
		outputs[outputSignature(r.Outputs)] = true
	}
	if sawOutput {
		rep.OutputDistinct = len(outputs)
	}
	for ord := 0; ord < points; ord++ {
		counts := make(map[ihash.Digest]int)
		for _, r := range rep.Runs {
			counts[r.Checkpoints[ord].SH]++
		}
		dist := make([]int, 0, len(counts))
		for _, n := range counts {
			dist = append(dist, n)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(dist)))
		st := CheckpointStat{
			Ordinal:       ord,
			Label:         rep.Runs[0].Checkpoints[ord].Label,
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
	if points > 0 {
		rep.DetAtEnd = rep.Stats[points-1].Deterministic && !rep.ShapeMismatch
	}
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
