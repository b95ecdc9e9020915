// Package instantcheck is a from-scratch reproduction of "InstantCheck:
// Checking the Determinism of Parallel Programs Using On-the-Fly
// Incremental Hashing" (Nistor, Marinov, Torrellas — MICRO 2010).
//
// InstantCheck checks the *external determinism* of parallel programs
// during testing: run the program many times for one input, distill the
// memory state into a 64-bit hash at every checkpoint (each barrier and the
// end of the run), and compare the hashes across runs. The hash is
// maintained *incrementally* as the program writes memory — the
// Bellare-Micciancio construction SH = ⊕ h(addr, value) over a mod-2^64
// group — so it is instantly available at any checkpoint without traversing
// memory.
//
// The package exposes:
//
//   - the checking API (Campaign, Check, Characterize): run a simulated
//     parallel program N times under a randomized serializing scheduler and
//     compare per-checkpoint state hashes;
//   - the program-authoring API (Program, Thread, Machine): write workloads
//     against a simulated shared memory with locks, barriers, condition
//     variables, malloc/free, output, and replayed library calls;
//   - the three hashing schemes of the paper (HWInc, SWInc, SWTr) and the
//     §7.3 instruction-count overhead model;
//   - the control of input nondeterminism (§5): malloc address replay,
//     library-call record/replay, FP round-off policies, and ignore-sets
//     that delete nondeterministic structures from the hash;
//   - the state-diff bug-localization tool (§2.3);
//   - the paper's 17 evaluation workloads and the drivers that regenerate
//     Table 1, Table 2 and Figures 5, 6 and 8 (see Table1, Table2,
//     Figure5, Figure6, Figure8);
//   - a static analyzer, cmd/icvet, that checks simulated programs obey
//     the instrumentation contract the hashing schemes assume: no shared
//     state outside Thread.Load/Store, no unlocked read-modify-writes
//     (§4.1), kind-correct stores (§5), balanced lock and hashing
//     regions, and ignore rules that name real allocation sites (§2.2);
//   - a determinism-checking service, cmd/checkd (internal/farm): a
//     daemon with a job queue, a worker pool that runs a campaign's
//     independent runs in parallel (core's one replay pool, which
//     Campaign.Check also runs on, one worker per core), an append-only
//     crash-tolerant hash-log store that resumes half-finished campaigns
//     across restarts, and an HTTP API — driven by `instantcheck remote`
//     — whose hash-log streams can be diffed across hosts;
//   - an observability layer (internal/obs): stdlib-only counters,
//     gauges and histograms with a Prometheus text exporter, served by
//     checkd at /metrics alongside a JSON /healthz and opt-in
//     net/http/pprof (-pprof). Job lifecycle, queue depth, store append
//     latency and the per-scheme hash path (stores hashed, checkpoints,
//     traversal sweeps, fast-window hit rate) are all scrapeable;
//     `instantcheck remote stats` renders a snapshot.
//
// Quick start: see ExampleCheck and ExampleNewMachine, which check the
// paper's Figure 1 program — internally nondeterministic, externally
// deterministic — and the other Example functions, one per walkthrough of
// the paper.
package instantcheck
