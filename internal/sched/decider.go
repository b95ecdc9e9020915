package sched

import "math/rand"

// Decider supplies the scheduler's decisions: how many operations to run
// before the next forced preemption, and which runnable thread to pick at
// each switch point. The default is the seeded random decider (the
// PCT/CHESS-style testing model of §7.1); the systematic-testing explorer
// (paper §6.2) substitutes a scripted decider to enumerate schedules, and
// PCT (pct.go) picks by thread priority.
type Decider interface {
	// SwitchBudget returns the number of Yield calls to absorb before the
	// next forced preemption decision (>= 1).
	SwitchBudget() int
	// Pick returns the next thread to run, one of runnable (len >= 2), at
	// a switch point with more than one candidate. cur is the thread that
	// was running (-1 before the first dispatch); its presence in runnable
	// distinguishes a forced preemption (cur still runnable) from a
	// blocking switch (cur absent). The order of runnable is a
	// deterministic function of the schedule so far, so a decider that
	// picks by position replays exactly. runnable must not be retained or
	// mutated.
	Pick(cur int, runnable []int) int
}

// randomDecider is the default seeded random policy.
type randomDecider struct {
	rng      *rand.Rand
	interval int
}

// newRandomDecider builds the default policy. interval is the mean
// operation count between preemptions.
func newRandomDecider(seed int64, interval int) *randomDecider {
	return &randomDecider{rng: rand.New(rand.NewSource(seed)), interval: interval}
}

// SwitchBudget draws uniformly on [1, 2*interval] (mean interval + 0.5).
func (d *randomDecider) SwitchBudget() int { return 1 + d.rng.Intn(2*d.interval) }

// Pick selects uniformly.
func (d *randomDecider) Pick(_ int, runnable []int) int {
	return runnable[d.rng.Intn(len(runnable))]
}
