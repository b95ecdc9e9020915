// Package explore implements the systematic-testing application of the
// InstantCheck primitive (paper §6.2). Systematic testing (CHESS-style)
// enumerates thread interleavings of a program while checking properties;
// its search space grows exponentially with the number of scheduling
// decisions. One way to fight the explosion is to recognize *equivalent
// states* and prune the search. Comparing entire states in software is too
// expensive, so CHESS prunes only by happens-before equivalence — which
// misses schedules that commute to the same state (the paper's Figure 1:
// two lock acquisition orders, same final state, different happens-before).
//
// With InstantCheck's cheap state hashes, pruning can be done by *state
// equality*: at every quiescent checkpoint (a barrier episode, where every
// thread is at a known program point) the explorer looks up the pair
// (checkpoint ordinal, State Hash); if it was already visited, the
// continuation subtree is identical to one explored before, and the run is
// aborted on the spot. This is both faster (more schedules pruned) and
// more precise (detects equal states even when the synchronization order
// differs) than happens-before pruning.
//
// The explorer comes in two shapes. Systematic is the exhaustive DFS over
// scheduling decisions, driven through the simulator's controlled
// scheduler: a scripted decider replays a prefix of choices and takes the
// first option afterwards, recording every decision point it passes; the
// explorer then branches on the recorded free decisions.
//
// # Exploration strategies
//
// Explore is the sampling counterpart for programs whose decision trees
// are too deep to enumerate: it runs a budgeted sequence of schedules
// chosen by a pluggable Strategy and stops at the first State-Hash
// divergence. Four strategies are built in (NewStrategy, StrategyNames):
//
//   - uniform: a fresh seeded random schedule per run — the baseline every
//     other strategy is measured against, and the right default when
//     nothing is known about the bug. Equivalent to a conventional stress
//     campaign.
//   - pct: PCT-style priority scheduling (sched.PCT). Each run assigns
//     random strict priorities and demotes the running thread at d
//     priority-change points placed uniformly over the operation budget,
//     so a run hits any d-point bug window with a probability that is
//     polynomial, not exponential, in the window count. Use it when the
//     bug needs a preemption at an unlucky depth but no race report is
//     available to aim at.
//   - race-directed: spends the first runs under the happens-before race
//     detector (racefilter), then preempts threads exactly at the racy
//     sites it found, named by the same "dir/file.go:line" identity the
//     static `icvet race` report uses. The strongest searcher for
//     atomicity and order-violation windows — the Figure 7 bugs are all
//     found within a handful of runs — at the cost of the detection-run
//     overhead and of finding nothing extra when the program has no races.
//   - coverage: coverage-guided schedule fuzzing. Every run's decision
//     stream is recorded; a run that produces a never-seen (checkpoint
//     ordinal, State Hash) outcome keeps its decision prefix in a
//     frontier, and later runs mutate those prefixes — the State Hash
//     serving as the coverage signal the paper's §6.2 makes affordable.
//     Use it for long-horizon searches where novelty compounds; on a
//     fixed rare window it has no aiming advantage over uniform.
//
// The exploration-efficiency experiment (`instantcheck exploreeff`,
// EXPERIMENTS.md "Exploration efficiency") measures all four on the three
// seeded Figure 7 bugs at equal budget. Explore searches are also a farm
// job kind (JobSpec.Kind "explore", `instantcheck remote submit
// -explore`), with per-strategy run and divergence counters on /metrics.
package explore
