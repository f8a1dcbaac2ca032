# pbslab build targets. `make check` is the tier-1 gate (ROADMAP.md).

GO ?= go

.PHONY: all build vet test race check gofmt-check ignored-check docs-lint staticcheck govulncheck fuzz chaos chaos-fleet chaos-agent chaos-wan soak crawl clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Tier-1 gate: everything builds, vets clean and is gofmt-formatted, git
# tracks no file .gitignore excludes, the analysis-engine and stats worker
# pools, the state fork-journal pool the slot engine's workers share, the
# relays that commit concurrently over one shared view, the defi contracts
# the parallel builds execute, and the batched atomic writer and pooled
# manifest verifier pass under the race detector, the full suite (including
# the sim's committed-digest goldens) passes, the corpus encoder survives a
# short fuzz run, and the chaos suite proves the pipeline is crash-safe.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) gofmt-check
	$(MAKE) ignored-check
	$(MAKE) docs-lint
	$(MAKE) staticcheck
	$(MAKE) govulncheck
	$(GO) test -race ./internal/core/... ./internal/stats/... ./internal/state/... ./internal/searcher/... ./internal/relay/... ./internal/defi/... ./internal/atomicio/... ./internal/report/...
	$(GO) test ./...
	$(MAKE) fuzz
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

# Tracking gate: fails, listing the files, when git tracks a file that
# .gitignore excludes (a build or run output committed by mistake goes stale
# while every run rewrites its ignored copy).
ignored-check:
	@out=$$(git ls-files -ci --exclude-standard) || exit 1; \
	if [ -n "$$out" ]; then echo "tracked files that .gitignore excludes:"; echo "$$out"; exit 1; fi

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

# Short fuzz budget: the hand-written segment encoder must write
# encoding/gob's bytes for arbitrary corpora, and gob must decode them back
# (internal/dsio); Retry-After parsing never goes negative and saturates
# oversized delta-seconds (internal/backoff). Seeds are in each package's
# testdata/fuzz. go test fuzzes one target per invocation; without -fuzz it
# replays the committed seeds only.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeSegmentMatchesGob$$' -fuzztime 10s ./internal/dsio
	$(GO) test -run '^$$' -fuzz '^FuzzParseRetryAfter$$' -fuzztime 5s ./internal/backoff

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
# corpora byte-identical to uninterrupted runs, and a second resume of the
# finished run leasing nothing; lease expiry edge cases
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
# partitioned attempt is reclaimed, an agents-only run (Workers 0 with a
# static agent list), and the seeded network fault plan itself.
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
# old snapshot keeps serving; a reload its caller abandoned is no
# rejection), panic isolation, slow-loris bounding, seeded
# server-side fault injection, kill-and-restart byte-identity, and the
# response cache's consistency chaos (reload-under-load mixed-fingerprint
# check, singleflight herd collapse, failed/abandoned fills never
# poisoning).
soak:
	$(GO) test -race -count=1 \
		-run 'Admission|ServeOverload|Drain|Reload|ServePanic|SlowLoris|FaultInjection|Poller|KillAndRestart|WriteFile|Decode|Cache|Singleflight' \
		./internal/serve/... ./internal/atomicio/... ./internal/dsio/...

# The fault-injected crawl demo (byte-identical stdout per -seed).
crawl:
	$(GO) run ./cmd/relaycrawl

clean:
	$(GO) clean ./...
