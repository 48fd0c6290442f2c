// Package analysis is Corona's house static-analysis suite: four
// analyzers that encode invariants this repository has already paid to
// learn at runtime, run over every package by cmd/corona-lint (wired
// into `make lint`, `make check`, and CI). The framework is
// self-contained on go/ast + go/types — the Analyzer/Pass shape mirrors
// golang.org/x/tools/go/analysis, so the checks read idiomatically and
// could migrate upstream if the dependency ever lands.
//
// # The analyzers and the bugs behind them
//
// maporder (deterministic iteration). The simulation stack must be a
// pure function of the seed: eventsim orders events, simnet orders
// deliveries, and the chaos harness replays fault timelines by seed
// alone. PR 7's invariant sweep caught identically-seeded runs
// desynchronizing because pastry.KnownNodes and core's ownerAntiEntropy
// iterated Go maps — whose order is deliberately randomized — straight
// into seeded-draw indexing and wire traffic. maporder flags a `range`
// over a map in the deterministic packages (core, pastry, chaos,
// eventsim, honeycomb) when the loop body sends messages, appends to a
// slice that outlives the loop, draws from a seeded *rand.Rand, or adds
// to a floating-point variable that outlives the loop: core's
// maintenance once summed cluster factors in map order, and table 2
// differed between runs of one seed (sums inside a method call, such as
// ClusterSet.MergeSet, are beyond the check). The PR-7 fix shape —
// collect, then sort.*/slices.* — is recognized and not flagged.
//
// lockblock (no blocking under lock). PR 2 found pastry's fanOut
// allocating and sending while holding the node's RLock: one slow peer
// stalled every reader of the routing state, and PR 6's fan-out
// scale-out had to restructure the same path again
// (collect-under-lock, send-after-unlock, with failed sends feeding
// handlePeerFault outside the critical section). lockblock flags
// channel sends, Send/SendBatch-shaped transport calls, blocking
// net.Conn/TLS I/O, and WAL/fsync calls (store Append/Sync/Compact/
// Close, (*os.File).Sync — PR 3's group-commit window means Append can
// park for milliseconds) made while a sync.Mutex/RWMutex acquired in
// the same function is held.
//
// wiresym (wire symmetry). The codec's binary payload contract
// (PR 2) lets a registered type ship a native AppendBinary/DecodeBinary
// pair; anything else rode a JSON fallback, since removed (the codec
// now refuses to register or encode a payload without the binary
// contract). That asymmetry bit twice: replicateMsg stayed JSON until
// PR 3 made replication hot,
// and the PR 5/6/8 message additions each had to remember the
// truncation-at-every-byte/fuzz suite by convention. wiresym checks
// every type handed to a codec registration (codec.RegisterPayload or
// the register-callback shape core/pastry use) for both halves of the
// contract and for a referencing truncation/fuzz test in the package,
// so a half-implemented or untested wire form fails the build instead
// of surfacing as a cross-version decode error.
//
// wallclock (virtual clock discipline). chaos, eventsim, and simnet
// run on a virtual clock, and PR 8's per-stage latency histograms only
// make sense in simulation because delivery timestamps ride the
// eventsim clock (r.Log.Now = sim.Now). A stray time.Now in those
// packages — or in any package that injects internal/clock — silently
// mixes wall time into seeded runs. wallclock flags time.Now/Since/
// Until/After/Tick/Sleep/NewTimer/NewTicker/AfterFunc there; the
// composition root (package corona), which wires clock.Real, is
// exempt.
//
// # Deliberate exceptions
//
// A finding that is wrong-in-general but right-here is annotated in
// source on the flagged line or the line directly above:
//
//	//lint:allow <analyzer> <reason>
//
// The directive is checked, not free-form: the analyzer name must
// belong to the suite, the reason is mandatory, and an allow that no
// longer suppresses anything is itself a finding — stale exceptions
// cannot rot in place after the code they excused is rewritten.
//
// # Fixture layout
//
// Each analyzer has an analysistest-style fixture suite under
// testdata/src/<importpath>, where the import path is the directory
// path — so fixtures claim real Corona paths (testdata/src/corona/
// internal/pastry contains the exact pre-PR-7 KnownNodes shape) to
// exercise the package gating. Expected findings are `// want "regex"`
// comments on the flagged line; the same shapes appear un-flagged in
// non-gated packages and in fixed form. TestRepoIsLintClean runs the
// whole suite over the repository itself, pinning it lint-clean.
package analysis
