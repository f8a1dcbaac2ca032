// Package pbslab is a from-scratch Go reproduction of "Ethereum's
// Proposer-Builder Separation: Promises and Realities" (Heimbach, Kiffer,
// Ferreira Torres, Wattenhofer — IMC 2023).
//
// The repository contains two halves:
//
//   - A calibrated simulator of the post-merge PBS ecosystem
//     (internal/sim and the substrates underneath it: execution engine,
//     DeFi venues, gossip network, consensus schedule, searchers, builders,
//     relays, MEV-Boost), standing in for the mainnet data the paper
//     measured.
//   - The paper's measurement pipeline (internal/core), a parallel,
//     single-pass analysis engine that consumes only the collected
//     datasets — never simulator ground truth — and computes every figure
//     and table of the evaluation. Blocks are classified in parallel, one
//     fused pass builds a per-day index, and all artifacts render from it
//     byte-identically at every worker count (pinned by committed
//     digests).
//
// Package map (each package carries its own doc; `make docs-lint`
// enforces that):
//
//	internal/sim      scenario DSL, slot engine, day-sharded checkpoints
//	internal/core     analysis engine; NewStreaming builds the index
//	                  out-of-core from chunked corpora (DESIGN.md §11)
//	internal/dsio     corpus serialization: chunked per-day dataset/
//	                  segments
//	internal/report   artifact rendering, manifests, VerifyDir
//	internal/serve    the pbslabd serving plane (degradation ladder)
//	internal/fleet    crash-tolerant experiment grid with scale axes
//	internal/cli      shared flag/knob wiring (-scale and friends)
//	internal/faults   seeded fault injection: HTTP, disk, subprocess
//	internal/stats    parallel descriptive statistics
//
// Entry points: cmd/pbslab runs the study end-to-end (-figures DIR writes
// every figure as CSV); cmd/relaycrawl demonstrates the relay data-API crawl
// over real HTTP; cmd/pbslabd serves a verified output directory;
// cmd/pbsfleet runs experiment grids. The examples directory holds runnable
// walkthroughs, bench_test.go regenerates each of the paper's tables and
// figures as a benchmark target, and perfbench/ times the pipeline from
// seed to verified artifacts. See DESIGN.md for the full system inventory
// (§6 for the engine, §11 for corpus scale) and EXPERIMENTS.md for
// paper-vs-measured results.
package pbslab
