// Package replay controls the sources of input nondeterminism that
// InstantCheck must hold fixed so that any hash difference between runs can
// only come from thread interleaving (paper §5):
//
//   - dynamic memory allocation: addresses returned by malloc are logged on
//     the first run and replayed on subsequent runs, keyed by (allocation
//     site, per-site sequence number);
//   - nondeterministic library calls (rand, gettimeofday): results are
//     treated as program input — recorded once, then returned identically on
//     every subsequent run. As with any input, tests may vary them between
//     *campaigns* to increase coverage, but within one determinism-checking
//     campaign they are fixed.
//
// Both recordings marshal to JSON with their entries sorted (marshal.go),
// the form in which a fleet coordinator ships them to its workers.
package replay

import (
	"fmt"
	"math/rand"
)

// AddrLog records and replays heap allocation addresses across runs. The
// first run populates the log; later runs look addresses up, so that the
// j-th allocation at a given site lands at the same address regardless of
// which thread performs it or when. This is the paper's interception of the
// dynamic allocator, "treating addresses returned by malloc as program
// input and capturing it as done for deterministic replay".
type AddrLog struct {
	addrs map[addrKey]uint64
}

type addrKey struct {
	site string
	seq  int
}

// NewAddrLog returns an empty log.
func NewAddrLog() *AddrLog {
	return &AddrLog{addrs: make(map[addrKey]uint64)}
}

// Lookup returns the logged address for the seq-th allocation at site.
func (l *AddrLog) Lookup(site string, seq int) (uint64, bool) {
	a, ok := l.addrs[addrKey{site, seq}]
	return a, ok
}

// Record stores the address chosen for the seq-th allocation at site. It is
// an error to re-record a key with a different address — that would mean the
// replay hook was bypassed.
func (l *AddrLog) Record(site string, seq int, addr uint64) {
	k := addrKey{site, seq}
	if prev, ok := l.addrs[k]; ok && prev != addr {
		panic(fmt.Sprintf("replay: allocation %s#%d re-recorded at %#x (was %#x)", site, seq, addr, prev))
	}
	l.addrs[k] = addr
}

// Len returns the number of logged allocations.
func (l *AddrLog) Len() int { return len(l.addrs) }

// Clone returns an independent copy of the log. A campaign's replay runs
// can execute concurrently when each holds its own clone: the clones start
// from the same recorded addresses, and any growth (a run that reaches an
// allocation the recording run never performed) stays private to that run,
// so no run can observe another's scheduling.
func (l *AddrLog) Clone() *AddrLog {
	c := &AddrLog{addrs: make(map[addrKey]uint64, len(l.addrs))}
	for k, v := range l.addrs {
		c.addrs[k] = v
	}
	return c
}

// Env records and replays the results of nondeterministic library calls.
// Each call stream is keyed by (thread id, call name); within a stream,
// the i-th call returns the i-th recorded value. On the recording run the
// values come from a seeded generator (the fixed "input"); on replay runs
// the same values are returned regardless of interleaving.
type Env struct {
	src     *rand.Rand
	streams map[envKey][]uint64
	cursor  map[envKey]int
}

type envKey struct {
	tid  int
	name string
}

// NewEnv returns an environment whose first (recording) run draws values
// from a generator seeded with inputSeed. inputSeed is part of the test
// input: changing it changes the program input, not the interleaving.
func NewEnv(inputSeed int64) *Env {
	return &Env{
		src:     rand.New(rand.NewSource(inputSeed)),
		streams: make(map[envKey][]uint64),
		cursor:  make(map[envKey]int),
	}
}

// BeginRun resets the per-run cursors. The first BeginRun starts the
// recording run; every later one replays.
func (e *Env) BeginRun() {
	for k := range e.cursor {
		e.cursor[k] = 0
	}
	// After any values have been recorded, switch to replay mode for
	// streams that already exist; unseen streams continue recording, which
	// handles threads that take different paths (their extra calls are
	// appended, mirroring the paper's log-growing behaviour).
}

// Next returns the next value of the named call stream for thread tid.
func (e *Env) Next(tid int, name string) uint64 {
	k := envKey{tid, name}
	i := e.cursor[k]
	e.cursor[k] = i + 1
	s := e.streams[k]
	if i < len(s) {
		return s[i]
	}
	v := e.src.Uint64()
	e.streams[k] = append(s, v)
	return v
}

// Fork returns an independent replay view of the environment: the streams
// recorded so far are copied, the cursors start at zero, and any draw past
// the end of a recorded stream (a thread that takes a path the recording
// run never took) comes from a fresh generator seeded with seed. Forks let
// a campaign's replay runs execute concurrently — every fork replays the
// same recorded input, and fresh draws are a function of the fork's own
// seed rather than of how the sibling runs interleave.
func (e *Env) Fork(seed int64) *Env {
	f := &Env{
		src:     rand.New(rand.NewSource(seed)),
		streams: make(map[envKey][]uint64, len(e.streams)),
		cursor:  make(map[envKey]int, len(e.streams)),
	}
	for k, s := range e.streams {
		f.streams[k] = append([]uint64(nil), s...)
		f.cursor[k] = 0
	}
	return f
}

// Rand returns the next replayed rand() result for thread tid.
func (e *Env) Rand(tid int) uint64 { return e.Next(tid, "rand") }

// Gettimeofday returns the next replayed gettimeofday() result for thread
// tid, shaped as a plausible monotone microsecond timestamp.
func (e *Env) Gettimeofday(tid int) int64 {
	base := int64(1_288_000_000_000_000) // fixed epoch: the input
	jitter := int64(e.Next(tid, "gettimeofday") % 1_000_000)
	return base + jitter
}
