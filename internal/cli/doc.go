// Package cli holds cmd/pbslab's scenario and flag wiring. Knobs carries
// the scenario overrides — the epbs counterfactual toggle,
// builder-population and latency knobs, and -scale, the corpus-density
// multiplier behind the out-of-core pipeline (DESIGN.md §11) — with one
// Apply method so a flag means the same thing on the command line as in
// the fleet's grid axes. It also validates output directories up front: a
// figure run simulates for minutes before writing anything, so an
// unwritable -figures path must fail before the simulation starts, not
// after. ParseHosts and LoopbackAddr are the -agents and listen-address
// checks pbsfleet and pbsagent share.
package cli
