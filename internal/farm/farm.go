// Package farm implements checkfarm: a long-running determinism-checking
// service on top of the core checker. The paper's workflow — run the same
// program on the same input many times and compare per-checkpoint State
// Hashes (§2) — is an embarrassingly parallel campaign, and the farm turns
// it into infrastructure:
//
//   - a job queue accepts check campaigns (workload + options), schedules
//     them FIFO, tracks per-job status and supports cancellation;
//   - a worker pool exploits run-level independence: each of a campaign's
//     runs is reproducible from (schedule seed, replay logs) alone (§5),
//     so after the recording run, replay runs execute concurrently and a
//     merge stage folds the per-run hash vectors into one report — the
//     hash combine is commutative, so the report is identical no matter
//     how the runs interleave (the paper's order-independence property at
//     run granularity);
//   - a persistent hash-log store appends one line per (job, run,
//     checkpoint, SH) to an on-disk log, so a restarted daemon resumes
//     partially-complete campaigns where they stopped, and hash logs from
//     two hosts can be diffed — §6.3's hash-assisted replay log made
//     durable;
//   - an HTTP JSON API (submit / status / report / hash-log stream /
//     compare) serves the whole thing; cmd/checkd is the daemon and the
//     Client type plus `instantcheck remote` are the callers.
package farm

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"instantcheck/internal/apps"
	"instantcheck/internal/core"
	"instantcheck/internal/explore"
	"instantcheck/internal/ihash"
	"instantcheck/internal/racefilter"
	"instantcheck/internal/sim"
)

// JobID identifies one submitted campaign, unique within a store.
type JobID string

// JobSpec is the wire-format description of a check campaign: everything
// needed to reconstruct the core.Campaign and the workload builder on any
// host. All fields except App are optional; zero values select the paper's
// defaults (30 runs, 8 threads, HW-InstantCheck_Inc, the mix64 hasher).
type JobSpec struct {
	// App names the workload to check (one of the 17 evaluation kernels).
	App string `json:"app"`
	// Runs is the campaign's run count, at most explore.DefaultMaxRuns.
	Runs int `json:"runs,omitempty"`
	// Threads is the worker thread count per run, at most
	// racefilter.MaxThreads (the detector behind race-directed search
	// packs a thread slot into one byte).
	Threads int `json:"threads,omitempty"`
	// Seed is the base schedule seed; run i uses Seed + i.
	Seed int64 `json:"seed,omitempty"`
	// InputSeed fixes the replayed input streams.
	InputSeed int64 `json:"input_seed,omitempty"`
	// SwitchInterval is the scheduler's mean preemption interval.
	SwitchInterval int `json:"switch_interval,omitempty"`
	// Scheme selects the hashing scheme: "hwinc" (default), "swinc",
	// "swinc-nonatomic" or "swtr".
	Scheme string `json:"scheme,omitempty"`
	// Hasher selects the location hash: "mix64" (default) or "crc64".
	Hasher string `json:"hasher,omitempty"`
	// RoundFP enables the FP round-off unit for the whole campaign.
	RoundFP bool `json:"round_fp,omitempty"`
	// Isolate applies the workload's small-structure ignore set (§2.2).
	Isolate bool `json:"isolate,omitempty"`
	// Small selects the reduced (unit-test scale) input.
	Small bool `json:"small,omitempty"`
	// Kind selects the job type: "check" (default) replays Runs schedules
	// and compares their full hash vectors; "explore" hunts for a
	// schedule-dependent divergence with a search strategy, stopping at
	// the first one (Runs becomes the search budget).
	Kind string `json:"kind,omitempty"`
	// Strategy selects the exploration strategy for explore jobs:
	// "uniform" (default), "pct", "race-directed" or "coverage".
	Strategy string `json:"strategy,omitempty"`
	// PCTDepth is the number of priority-change points for the pct
	// strategy: 0 selects the default, and at most explore.MaxPCTDepth.
	PCTDepth int `json:"pct_depth,omitempty"`
	// Bug seeds the workload's Figure 7 bug ("semantic", "atomicity" or
	// "order"); the workload must host that bug kind. Valid for both job
	// kinds — a check campaign on a seeded bug measures detection, an
	// explore campaign measures runs-to-detect.
	Bug string `json:"bug,omitempty"`
}

// bugs maps wire names to seeded bug kinds.
var bugs = map[string]apps.BugKind{
	"":          apps.BugNone,
	"semantic":  apps.BugSemantic,
	"atomicity": apps.BugAtomicity,
	"order":     apps.BugOrder,
}

// schemes maps wire names to simulator schemes.
var schemes = map[string]sim.Scheme{
	"":                sim.HWInc,
	"hwinc":           sim.HWInc,
	"swinc":           sim.SWInc,
	"swinc-nonatomic": sim.SWIncNonAtomic,
	"swtr":            sim.SWTr,
}

// Resolve maps the spec to a campaign and a workload builder, validating
// every field. It is the single point where wire names become checker
// configuration, shared by the daemon, the resume path and the clients.
func (s JobSpec) Resolve() (core.Campaign, core.Builder, error) {
	app := apps.ByName(s.App)
	if app == nil {
		return core.Campaign{}, nil, fmt.Errorf("farm: unknown workload %q (have %s)",
			s.App, strings.Join(apps.Names(), ", "))
	}
	switch s.Kind {
	case "", "check":
		if s.Strategy != "" || s.PCTDepth != 0 {
			return core.Campaign{}, nil, fmt.Errorf("farm: strategy options are only valid on explore jobs (kind=explore)")
		}
	case "explore":
		if !knownStrategy(s.Strategy) {
			return core.Campaign{}, nil, fmt.Errorf("farm: unknown strategy %q (want %s)",
				s.Strategy, strings.Join(explore.StrategyNames(), ", "))
		}
	default:
		return core.Campaign{}, nil, fmt.Errorf("farm: unknown job kind %q (want check or explore)", s.Kind)
	}
	// Bound what the job worker would otherwise allocate from: Submit
	// persists the spec before it runs, so a spec that crashes the worker
	// would crash every restart too.
	if s.Runs > explore.DefaultMaxRuns {
		return core.Campaign{}, nil, fmt.Errorf("farm: runs = %d; want at most %d", s.Runs, explore.DefaultMaxRuns)
	}
	if s.Threads > racefilter.MaxThreads {
		return core.Campaign{}, nil, fmt.Errorf("farm: threads = %d; want at most %d", s.Threads, racefilter.MaxThreads)
	}
	if s.PCTDepth < 0 || s.PCTDepth > explore.MaxPCTDepth {
		return core.Campaign{}, nil, fmt.Errorf("farm: pct_depth = %d; want 0 to %d", s.PCTDepth, explore.MaxPCTDepth)
	}
	bug, ok := bugs[s.Bug]
	if !ok {
		return core.Campaign{}, nil, fmt.Errorf("farm: unknown bug %q (want semantic, atomicity or order)", s.Bug)
	}
	if bug != apps.BugNone && bug != app.HostsBug {
		return core.Campaign{}, nil, fmt.Errorf("farm: workload %q does not host a %s bug", s.App, bug)
	}
	scheme, ok := schemes[s.Scheme]
	if !ok {
		return core.Campaign{}, nil, fmt.Errorf("farm: unknown scheme %q (want hwinc, swinc, swinc-nonatomic or swtr)", s.Scheme)
	}
	var hasher ihash.Hasher
	switch s.Hasher {
	case "", "mix64":
		hasher = nil // campaign default
	case "crc64":
		hasher = ihash.CRC64{}
	default:
		return core.Campaign{}, nil, fmt.Errorf("farm: unknown hasher %q (want mix64 or crc64)", s.Hasher)
	}
	var ignore *sim.IgnoreSet
	if s.Isolate {
		ignore = app.IgnoreSet()
	}
	camp, err := core.Campaign{
		Runs:             s.Runs,
		Threads:          s.Threads,
		BaseScheduleSeed: s.Seed,
		InputSeed:        s.InputSeed,
		SwitchInterval:   s.SwitchInterval,
		Scheme:           scheme,
		Hasher:           hasher,
		RoundFP:          s.RoundFP,
		Ignore:           ignore,
	}.WithDefaults()
	if err != nil {
		return core.Campaign{}, nil, err
	}
	build := app.Builder(apps.Options{Threads: camp.Threads, Small: s.Small, Bug: bug})
	return camp, build, nil
}

// knownStrategy reports whether name is a registered exploration strategy
// (empty selects uniform).
func knownStrategy(name string) bool {
	if name == "" {
		return true
	}
	for _, s := range explore.StrategyNames() {
		if s == name {
			return true
		}
	}
	return false
}

// Report is the wire projection of a campaign outcome. It carries exactly
// the hash-level results — verdicts, distributions, detection latency —
// and none of the per-run simulator internals, so a report assembled from
// a resumed hash log is identical to one from an uninterrupted campaign.
type Report struct {
	Program        string                `json:"program"`
	Runs           int                   `json:"runs"`
	Points         int                   `json:"points"`
	DetPoints      int                   `json:"det_points"`
	NDetPoints     int                   `json:"ndet_points"`
	Deterministic  bool                  `json:"deterministic"`
	DetAtEnd       bool                  `json:"det_at_end"`
	FirstNDetRun   int                   `json:"first_ndet_run"`
	ShapeMismatch  bool                  `json:"shape_mismatch"`
	OutputDistinct int                   `json:"output_distinct"`
	Stats          []core.CheckpointStat `json:"stats"`
	// Explore carries the search outcome of explore jobs; nil on check
	// jobs, keeping their report JSON byte-identical to earlier versions.
	Explore *ExploreOutcome `json:"explore,omitempty"`
}

// ExploreOutcome is an explore job's search outcome, durable in the
// store's "explored" record.
type ExploreOutcome = explore.Outcome

// projectReport flattens a core report into the wire shape.
func projectReport(rep *core.Report) *Report {
	return &Report{
		Program:        rep.Program,
		Runs:           len(rep.Runs),
		Points:         rep.Points(),
		DetPoints:      rep.DetPoints,
		NDetPoints:     rep.NDetPoints,
		Deterministic:  rep.Deterministic(),
		DetAtEnd:       rep.DetAtEnd,
		FirstNDetRun:   rep.FirstNDetRun,
		ShapeMismatch:  rep.ShapeMismatch,
		OutputDistinct: rep.OutputDistinct,
		Stats:          rep.Stats,
	}
}

// HashLogLine is one (run, checkpoint, SH) record of a job's hash log —
// the §6.3 replay log in its durable, comparable form.
type HashLogLine struct {
	Run     int          `json:"run"`
	Ordinal int          `json:"ordinal"`
	Label   string       `json:"label"`
	SH      ihash.Digest `json:"sh"`
}

// WriteHashLog writes lines in the canonical text form
//
//	<run> <ordinal> <sh-hex> <quoted-label>
//
// which ParseHashLog reads back; the format is the interchange unit for
// cross-host comparison.
func WriteHashLog(w io.Writer, lines []HashLogLine) error {
	bw := bufio.NewWriter(w)
	var b []byte
	for _, l := range lines {
		b = strconv.AppendInt(b[:0], int64(l.Run), 10)
		b = strconv.AppendInt(append(b, ' '), int64(l.Ordinal), 10)
		b = appendHex16(append(b, ' '), uint64(l.SH))
		b = strconv.AppendQuote(append(b, ' '), l.Label)
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseHashLog reads the canonical text form back into lines.
func ParseHashLog(r io.Reader) ([]HashLogLine, error) {
	var out []HashLogLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, " ", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("farm: hash log line %d: want 4 fields, got %d", n, len(parts))
		}
		run, err := strconv.Atoi(parts[0])
		if err != nil || run < 0 {
			return nil, fmt.Errorf("farm: hash log line %d: run %q: want a non-negative integer", n, parts[0])
		}
		ord, err := strconv.Atoi(parts[1])
		if err != nil || ord < 0 {
			return nil, fmt.Errorf("farm: hash log line %d: ordinal %q: want a non-negative integer", n, parts[1])
		}
		sh, err := strconv.ParseUint(parts[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("farm: hash log line %d: hash: %v", n, err)
		}
		label, err := strconv.Unquote(parts[3])
		if err != nil {
			return nil, fmt.Errorf("farm: hash log line %d: label: %v", n, err)
		}
		out = append(out, HashLogLine{Run: run, Ordinal: ord, Label: label, SH: ihash.Digest(sh)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Divergence locates the first disagreeing checkpoint between two hash
// logs — where a cross-host replay diverged.
type Divergence struct {
	Run     int    `json:"run"`
	Ordinal int    `json:"ordinal"`
	Label   string `json:"label"`
	A       string `json:"a"`
	B       string `json:"b"`
}

// missingSide marks the absent side of a divergence caused by truncation:
// one log has a checkpoint (or a whole run) the other simply lacks —
// the signature of a worker that died mid-run.
const missingSide = "(missing)"

// CompareResult is the outcome of diffing two hash logs.
type CompareResult struct {
	// Equal is true when every run present in both logs has an identical
	// hash vector and both logs cover the same runs.
	Equal bool `json:"equal"`
	// RunsA and RunsB count the complete runs in each log.
	RunsA int `json:"runs_a"`
	RunsB int `json:"runs_b"`
	// RunsCompared counts runs present in both logs.
	RunsCompared int `json:"runs_compared"`
	// DifferingRuns lists the run indices whose vectors disagree (including
	// runs one side is missing entirely).
	DifferingRuns []int `json:"differing_runs,omitempty"`
	// OnlyA and OnlyB list runs present in one log but not the other — a
	// truncated campaign (worker death, partial fetch) shows up here
	// instead of silently shrinking the comparison.
	OnlyA []int `json:"only_a,omitempty"`
	OnlyB []int `json:"only_b,omitempty"`
	// First is the earliest divergence (by run, then ordinal), nil only
	// when the logs are equal. A side reading "(missing)" means that log
	// ends before the checkpoint — truncation, not a hash mismatch.
	First *Divergence `json:"first,omitempty"`
}

// CompareHashLogs diffs two hash logs run by run. Two hosts checking the
// same (app, input, seeds) must produce identical logs; the first
// divergence pinpoints the checkpoint where their executions differ.
//
// Truncated inputs never pass silently: a run present in only one log, or
// a run whose vector is a strict prefix of the other side's, makes the
// result unequal and First names the first checkpoint the shorter side is
// missing — so a campaign cut short by a dying worker cannot masquerade
// as a clean (if small) match.
func CompareHashLogs(a, b []HashLogLine) *CompareResult {
	byRun := func(lines []HashLogLine) map[int][]HashLogLine {
		m := make(map[int][]HashLogLine)
		for _, l := range lines {
			m[l.Run] = append(m[l.Run], l)
		}
		return m
	}
	ra, rb := byRun(a), byRun(b)
	res := &CompareResult{Equal: true, RunsA: len(ra), RunsB: len(rb)}
	runs := make([]int, 0, len(ra)+len(rb))
	for run := range ra {
		runs = append(runs, run)
	}
	for run := range rb {
		if _, ok := ra[run]; !ok {
			runs = append(runs, run)
		}
	}
	slices.Sort(runs)
	setFirst := func(d *Divergence) {
		if res.First == nil {
			res.First = d
		}
	}
	for _, run := range runs {
		va, okA := ra[run]
		vb, okB := rb[run]
		switch {
		case !okA:
			res.Equal = false
			res.OnlyB = append(res.OnlyB, run)
			res.DifferingRuns = append(res.DifferingRuns, run)
			setFirst(&Divergence{Run: run, Ordinal: vb[0].Ordinal, Label: vb[0].Label,
				A: missingSide, B: vb[0].SH.String()})
			continue
		case !okB:
			res.Equal = false
			res.OnlyA = append(res.OnlyA, run)
			res.DifferingRuns = append(res.DifferingRuns, run)
			setFirst(&Divergence{Run: run, Ordinal: va[0].Ordinal, Label: va[0].Label,
				A: va[0].SH.String(), B: missingSide})
			continue
		}
		res.RunsCompared++
		n := len(va)
		if len(vb) < n {
			n = len(vb)
		}
		runDiffers := false
		for i := 0; i < n; i++ {
			if va[i].SH != vb[i].SH {
				runDiffers = true
				setFirst(&Divergence{
					Run:     run,
					Ordinal: va[i].Ordinal,
					Label:   va[i].Label,
					A:       va[i].SH.String(),
					B:       vb[i].SH.String(),
				})
				break
			}
		}
		if !runDiffers && len(va) != len(vb) {
			// The common prefix agrees but one side's run is truncated:
			// point at the first checkpoint the shorter side lacks.
			runDiffers = true
			if len(va) > len(vb) {
				l := va[n]
				setFirst(&Divergence{Run: run, Ordinal: l.Ordinal, Label: l.Label,
					A: l.SH.String(), B: missingSide})
			} else {
				l := vb[n]
				setFirst(&Divergence{Run: run, Ordinal: l.Ordinal, Label: l.Label,
					A: missingSide, B: l.SH.String()})
			}
		}
		if runDiffers {
			res.Equal = false
			res.DifferingRuns = append(res.DifferingRuns, run)
		}
	}
	return res
}
