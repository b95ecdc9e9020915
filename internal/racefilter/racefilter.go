// Package racefilter implements the benign-data-race application of the
// InstantCheck primitive (paper §6.1). Data-race detectors report every
// race, but Narayanasamy et al. found ~90% of reported races to be benign —
// they never change the program's outcome — and proposed classifying races
// by comparing the memory states produced when the race resolves both
// ways. InstantCheck makes that comparison cheap: states are compared by
// their 64-bit hashes, and a race is flagged harmful only when the states
// actually diverge.
//
// The package provides two pieces:
//
//   - Detector: a FastTrack-style epoch happens-before race detector over
//     a dense shadow-page directory (see epoch.go and shadow.go), fed by
//     the simulator's event stream — the baseline race detector
//     InstantCheck would piggyback on. Same-epoch repeat accesses
//     short-circuit in O(1) with no pc lookup, so detection runs
//     cost close to plain check runs. The package tests pin it
//     observationally identical to a vector-clock reference detector, on
//     fuzzed event traces and on every workload's real event stream.
//   - Classify: runs the program under many schedules, once each, with
//     the detector attached, and marks each detected racy address benign
//     or harmful by whether any of those runs' final states disagrees at
//     it — the paper's observation that "using InstantCheck to detect
//     races already filters out benign races because of the state
//     comparison that InstantCheck performs".
package racefilter

import (
	"fmt"
	"sort"

	"instantcheck/internal/ihash"
	"instantcheck/internal/mem"
	"instantcheck/internal/replay"
	"instantcheck/internal/sim"
)

// AccessKind distinguishes the racing access pair.
type AccessKind int

const (
	// WriteWrite is a write racing a previous write.
	WriteWrite AccessKind = iota
	// ReadWrite is a write racing a previous read.
	ReadWrite
	// WriteRead is a read racing a previous write.
	WriteRead
)

// String names the pair like race reports do.
func (k AccessKind) String() string {
	switch k {
	case WriteWrite:
		return "write-write"
	case ReadWrite:
		return "read-write"
	case WriteRead:
		return "write-read"
	default:
		return "AccessKind(?)"
	}
}

// Race is one detected happens-before race, deduplicated by address and
// kind.
type Race struct {
	// Addr is the racy word.
	Addr uint64
	// Kind is the access pair.
	Kind AccessKind
	// TidA and TidB are the two unordered threads (first occurrence).
	TidA, TidB int
	// Site attributes the address to its allocation site (when known).
	Site string
	// Offset is the word offset within the site's block.
	Offset int
	// SiteA and SiteB are the source sites ("file.go:line") of the two
	// racing accesses, in the order named by Kind (A first). They carry
	// the same file:line identity the static `icvet race` analysis
	// reports, so a dynamic race can be checked against the static
	// candidate-pair report (the soundness cross-check).
	SiteA, SiteB string
	// pcA and pcB retain the raw access pcs behind SiteA/SiteB; the
	// differential fuzzer compares them so attribution equivalence is
	// pinned at pc granularity, not just file:line.
	pcA, pcB uintptr
}

type raceKey struct {
	addr uint64
	kind AccessKind
}

// raceSet is the deduplicated race accumulator both detector
// implementations report into: first report per (addr, kind) wins.
type raceSet struct {
	m map[raceKey]*Race
}

func newRaceSet() raceSet { return raceSet{m: make(map[raceKey]*Race)} }

func (rs *raceSet) report(addr uint64, kind AccessKind, a, b int, pcA, pcB uintptr) {
	k := raceKey{addr, kind}
	if _, dup := rs.m[k]; dup {
		return
	}
	rs.m[k] = &Race{
		Addr: addr, Kind: kind, TidA: a, TidB: b,
		SiteA: sim.Site(pcA), SiteB: sim.Site(pcB),
		pcA: pcA, pcB: pcB,
	}
}

// sorted returns the races sorted by address then kind.
func (rs *raceSet) sorted() []Race {
	out := make([]Race, 0, len(rs.m))
	for _, r := range rs.m {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// join folds src into dst component-wise (vector-clock join).
func join(dst, src []uint64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Config drives detection and classification runs.
type Config struct {
	// Threads is the worker thread count, 1 to MaxThreads.
	Threads int
	// Runs is the number of schedules for detection/classification
	// (0 selects 10; negative is an error).
	Runs int
	// BaseSeed derives schedule seeds.
	BaseSeed int64
	// InputSeed fixes the program input.
	InputSeed int64
	// RoundFP enables FP rounding in state comparison.
	RoundFP bool
}

func (c Config) runs() int {
	if c.Runs == 0 {
		return 10
	}
	return c.Runs
}

// Detect runs the program under several schedules with the detector
// attached and returns the union of races found, attributed to allocation
// sites.
func Detect(build func() sim.Program, cfg Config) ([]Race, error) {
	return detect(build, cfg, nil)
}

// detect is Detect, and also hands each finished run's machine and result
// to final when that is non-nil. It is the package's one run loop, so it
// rejects an out-of-range Config before any run starts.
func detect(build func() sim.Program, cfg Config, final func(*sim.Machine, *sim.Result)) ([]Race, error) {
	if cfg.Threads < 1 || cfg.Threads > MaxThreads {
		return nil, fmt.Errorf("racefilter: threads = %d; want 1 to %d", cfg.Threads, MaxThreads)
	}
	if cfg.Runs < 0 {
		return nil, fmt.Errorf("racefilter: runs = %d; want at least 0 (0 selects 10)", cfg.Runs)
	}
	env := replay.NewEnv(cfg.InputSeed)
	addrLog := replay.NewAddrLog()
	union := make(map[raceKey]Race)
	for run := 0; run < cfg.runs(); run++ {
		det := NewDetector(cfg.Threads)
		m := sim.NewMachine(sim.Config{
			Threads:      cfg.Threads,
			ScheduleSeed: cfg.BaseSeed + int64(run),
			Scheme:       sim.HWInc,
			RoundFP:      cfg.RoundFP,
			Env:          env,
			AddrLog:      addrLog,
			Events:       det,
		})
		res, err := m.Run(build())
		if err != nil {
			return nil, fmt.Errorf("racefilter: detection run %d: %w", run+1, err)
		}
		if final != nil {
			final(m, res)
		}
		for _, r := range det.Races() {
			k := raceKey{r.Addr, r.Kind}
			if _, ok := union[k]; !ok {
				if b := m.Mem.BlockAt(r.Addr); b != nil {
					r.Site = b.Site
					r.Offset = int((r.Addr - b.Base) / mem.WordSize)
				} else if b := m.Mem.BlockByBase(r.Addr); b != nil {
					r.Site = b.Site
				} else {
					r.Site = "?"
				}
				union[k] = r
			}
		}
	}
	out := make([]Race, 0, len(union))
	for _, r := range union {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Kind < out[j].Kind
	})
	return out, nil
}

// Verdict classifies one race.
type Verdict struct {
	Race Race
	// Benign is true when no explored schedule produced a final state
	// that disagrees at the racy address (Narayanasamy-style state
	// comparison, done with InstantCheck snapshots).
	Benign bool
	// DistinctValues is the number of distinct final values observed at
	// the address across schedules (1 for benign races on live words).
	DistinctValues int
}

// Classification is the overall §6.1 result.
type Classification struct {
	// Verdicts holds one entry per detected race, ordered as Detect.
	Verdicts []Verdict
	// Deterministic is the program-level InstantCheck verdict across the
	// same schedules: when true, every race is necessarily benign.
	Deterministic bool
}

// BenignCount returns how many races were classified benign.
func (c *Classification) BenignCount() int {
	n := 0
	for _, v := range c.Verdicts {
		if v.Benign {
			n++
		}
	}
	return n
}

// Classify detects races and classifies each one by comparing the final
// memory states of the same runs at the racy address: each detection run's
// final snapshot and State Hash are taken as it ends, since the detector
// observes a run without changing its schedule. A race whose address ends
// with the same value under every explored schedule is benign; one whose
// address diverges is harmful.
//
// Note the approximation (shared with state-comparison classifiers): a
// race whose own address converges but which steers *other* state is
// caught through the program-level Deterministic verdict, not the
// per-address one.
func Classify(build func() sim.Program, cfg Config) (*Classification, error) {
	var snaps []*mem.Snapshot
	deterministic := true
	var firstSH ihash.Digest
	races, err := detect(build, cfg, func(m *sim.Machine, res *sim.Result) {
		if len(snaps) == 0 {
			firstSH = res.FinalSH()
		} else if res.FinalSH() != firstSH {
			deterministic = false
		}
		snaps = append(snaps, m.Mem.Snapshot())
	})
	if err != nil {
		return nil, err
	}
	cl := &Classification{Deterministic: deterministic}
	for _, r := range races {
		values := make(map[uint64]bool)
		for _, s := range snaps {
			v, live := s.Word(r.Addr)
			if !live {
				continue // freed by run end: not part of the final state
			}
			values[v] = true
		}
		cl.Verdicts = append(cl.Verdicts, Verdict{
			Race:           r,
			Benign:         len(values) <= 1,
			DistinctValues: len(values),
		})
	}
	return cl, nil
}
