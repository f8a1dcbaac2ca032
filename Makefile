# pbslab build targets. `make check` is the tier-1 gate (ROADMAP.md).

GO ?= go

.PHONY: all build vet test race check gofmt-check docs-lint staticcheck govulncheck chaos chaos-fleet chaos-agent chaos-wan soak crawl bench bench-serve bench-serve-sustained bench-fleet bench-scale bench-agent clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Tier-1 gate: everything builds, vets clean and is gofmt-formatted, the
# analysis-engine and stats worker pools and the state fork-journal pool
# the slot engine's workers share pass under the race detector, the full
# suite (including the sim's committed-digest goldens) passes, and the
# chaos suite proves the pipeline is crash-safe.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) gofmt-check
	$(MAKE) docs-lint
	$(MAKE) staticcheck
	$(MAKE) govulncheck
	$(GO) test -race ./internal/core/... ./internal/stats/... ./internal/state/... ./internal/searcher/...
	$(GO) test ./...
	$(MAKE) chaos
	$(MAKE) chaos-fleet
	$(MAKE) chaos-agent
	$(MAKE) chaos-wan
	$(MAKE) soak

# Formatting gate: fails, listing the files, when any tracked .go file is
# not gofmt-formatted.
gofmt-check:
	@out=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# Documentation gate: every package must carry a package comment (go/doc
# is the contract for newcomers; a silent package is a lint failure).
docs-lint:
	$(GO) run ./cmd/docslint .

# Static analysis and vulnerability scan. Both tools are optional (they
# need a network to install); when absent the target prints how to get
# them and succeeds, so `make check` stays runnable offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Crash-safety suite under the race detector: kill-and-resume goldens
# (simulation checkpoints and byte-identical artifacts at one and several
# slot-engine workers), the sim's committed-digest goldens at several
# worker counts (every sim test re-executes each block the slot engine
# adopts from its builder and fails on any difference), corruption
# injection against the dataset validator and the manifest verifier, and
# crawler checkpoint persistence.
chaos:
	$(GO) test -race -count=1 \
		-run 'KillAndResume|Resume|Checkpoint|Corrupt|Verify|Validate|Panic|Cancel|Workers' \
		./internal/sim/... ./internal/report/... ./internal/core/... \
		./internal/relayapi/... ./internal/stats/... ./internal/cli/...

# Fleet fault suite under the race detector: seeded process-level chaos
# (workers killed mid-cell, wedged without exiting, corrupt cell output)
# against real worker subprocesses, proving every grid cell ends
# completed-and-verified or quarantined-with-cause; kill-and-resume merged
# corpora byte-identical to uninterrupted runs; lease expiry edge cases
# (stale heartbeats after reclaim, double completion, publish-without-
# journal adoption); and journal torn-line replay.
chaos-fleet:
	$(GO) test -race -count=1 \
		-run 'Fleet|Lease|Journal|Replay|Proc' \
		./internal/fleet/... ./internal/faults/...

# Multi-host fleet fault suite under the race detector: the agent's
# epoch-fence protocol (stale dispatch/watch/result all 409, abort raises
# the floor), the flagship chaos convergence run (local + remote agents
# under seeded network faults, a partition, an agent kill/restart and an
# injected straggler, merging byte-identical to an undisturbed single-host
# run), straggler double-dispatch idempotence, coordinator kill/resume
# re-attaching open remote leases, stale-publication rejection after a
# partitioned attempt is reclaimed, and the seeded network fault plan
# itself.
chaos-agent:
	$(GO) test -race -count=1 \
		-run 'Agent|Straggler|StalePublish|Epoch|Net|Partition|Transport|Hosts|KillResume' \
		./internal/agent/... ./internal/fleet/... ./internal/faults/... ./internal/cli/...

# Real-network hardening suite under the race detector (DESIGN.md §14):
# the flagship WAN chaos run — HMAC on every RPC and TLS on the wire while
# seeded mid-transfer cuts, throttled bodies, duplicated (replayed)
# deliveries, flapping links and an agent kill/restart hammer the fleet;
# must converge byte-identical with zero quarantined cells. Plus: ranged
# resume re-transfers only the missing tail (transfer-byte ledger), a
# wrong-secret agent is 401'd once and never dispatched to again, drain
# 503s reroute without charge, duplicated dispatches join idempotently,
# dynamic registration joins/leaves/revives through the journal, and the
# secret never appears in journals or agent replies.
chaos-wan:
	$(GO) test -race -count=1 \
		-run 'WAN|Registr|Duplicate|Drain|Secret|Auth|Redact|Scrub|FetchFileTo|SyncMembers|RetryAfter|Cut|Throttle|Flap' \
		./internal/agent/... ./internal/fleet/... ./internal/serve/... \
		./internal/faults/... ./internal/backoff/...

# Serving-plane soak under the race detector: overload shedding with a
# balanced admission ledger, zero-loss graceful drain, verified hot-swap
# reloads (corrupt directory and corrupt dataset both rejected while the
# old snapshot keeps serving), panic isolation, slow-loris bounding, seeded
# server-side fault injection, kill-and-restart byte-identity, the response
# cache's consistency chaos (reload-under-load mixed-fingerprint check,
# singleflight herd collapse, failed/abandoned fills never poisoning), and
# the replica set's coordinated-swap and proxy-retry contracts.
soak:
	$(GO) test -race -count=1 \
		-run 'Admission|ServeOverload|Drain|Reload|ServePanic|SlowLoris|FaultInjection|Poller|KillAndRestart|WriteFile|Decode|Cache|Replica|Singleflight' \
		./internal/serve/... ./internal/atomicio/... ./internal/dsio/...

# The fault-injected crawl demo (byte-identical stdout per -seed).
crawl:
	$(GO) run ./cmd/relaycrawl

# DESIGN.md §3 benchmark set over the full paper window, recorded as a
# committed machine-readable baseline. EngineIndexBuild over
# EngineRegenIndexed yields derived.index_build_share_of_regen in
# BENCH_pr2.json.
BENCH_OUT ?= BENCH_pr2.json
bench:
	mkdir -p out
	$(GO) test -run '^$$' -bench . -benchtime 3x -timeout 1800s . | tee out/bench_pr2.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) out/bench_pr2.txt
	$(MAKE) bench-scale

# DESIGN.md §9 benchmark: the pbslabd serving plane under synchronized
# bursts at 1×/4×/16× admission capacity — p50/p99 latency of served
# responses, throughput, and shed rate, recorded as
# derived.serve_shed_rate_16x and derived.serve_p99_ratio_16x_vs_1x in
# BENCH_pr5.json.
SERVE_BENCH_OUT ?= BENCH_pr5.json
bench-serve:
	mkdir -p out
	$(GO) test -run '^$$' -bench 'ServeLoad' -benchtime 200x -timeout 1800s ./internal/serve | tee out/bench_pr5.txt
	$(GO) run ./cmd/benchjson -o $(SERVE_BENCH_OUT) out/bench_pr5.txt

# DESIGN.md §13 benchmark: the sustained-load serving tier. Re-measures the
# burst baseline (ServeLoad) and runs the closed-loop harness (32 clients,
# 1ms think) over nocache / cached / replicas-4x arms in one record, so the
# derived ratios compare numbers from the same machine and run:
# derived.sustained_speedup_vs_pr5 (acceptance: >= 10),
# derived.sustained_p99_ratio_vs_pr5 (acceptance: <= 2),
# derived.sustained_cache_hit_rate and derived.sustained_cache_speedup in
# BENCH_pr9.json.
SUSTAIN_BENCH_OUT ?= BENCH_pr9.json
bench-serve-sustained:
	mkdir -p out
	$(GO) test -run '^$$' -bench 'ServeLoad' -benchtime 200x -timeout 1800s ./internal/serve | tee out/bench_pr9.txt
	$(GO) test -run '^$$' -bench 'ServeSustained' -benchtime 3x -timeout 1800s ./internal/serve | tee -a out/bench_pr9.txt
	$(GO) run ./cmd/benchjson -o $(SUSTAIN_BENCH_OUT) out/bench_pr9.txt

# DESIGN.md §10 benchmark: fleet throughput (cells/min) at 1/4/8 worker
# subprocesses, the fixed cost of -resume, and the chaos run's recovery
# overhead + quarantine rate, recorded as derived.fleet_scaling_8x_vs_1x,
# derived.fleet_resume_overhead, derived.fleet_chaos_overhead and
# derived.fleet_quarantine_rate in BENCH_pr6.json.
FLEET_BENCH_OUT ?= BENCH_pr6.json
bench-fleet:
	mkdir -p out
	$(GO) test -run '^$$' -bench 'Fleet' -benchtime 3x -timeout 1800s ./internal/fleet | tee out/bench_pr6.txt
	$(GO) run ./cmd/benchjson -o $(FLEET_BENCH_OUT) out/bench_pr6.txt

# DESIGN.md §11 benchmark: the out-of-core corpus pipeline (chunked
# day-segment ingest + streamed index build) at 1×/10×/100× the miniature
# density — blocks/sec throughput and sampled peak heap, recorded as
# derived.scale_rss_ratio_100x_vs_1x (acceptance: < 20) and
# derived.scale_throughput_ratio_100x_vs_1x in BENCH_pr7.json.
SCALE_BENCH_OUT ?= BENCH_pr7.json
bench-scale:
	mkdir -p out
	$(GO) test -run '^$$' -bench 'CorpusScale' -timeout 1800s . | tee out/bench_pr7.txt
	$(GO) run ./cmd/benchjson -o $(SCALE_BENCH_OUT) out/bench_pr7.txt

# DESIGN.md §12 benchmark: the multi-host dispatch plane — one local
# worker vs four loopback agent slots, the same agent fleet under the
# seeded chaos network plan, and a straggler-rescue run — recorded as
# derived.agent_scaling_4x_vs_local, derived.agent_chaos_overhead and
# derived.agent_straggler_rescue_rate in BENCH_pr8.json.
AGENT_BENCH_OUT ?= BENCH_pr8.json
bench-agent:
	mkdir -p out
	$(GO) test -run '^$$' -bench 'FleetAgents' -benchtime 1x -timeout 1800s ./internal/agent | tee out/bench_pr8.txt
	$(GO) run ./cmd/benchjson -o $(AGENT_BENCH_OUT) out/bench_pr8.txt

clean:
	$(GO) clean ./...
