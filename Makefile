GO ?= go

.PHONY: build vet test race verify bench-selftest bench-perf bench-faults bench-crash bench-chaos bench-delta bench-tiers bench-json metrics-lint fmt-check staticcheck trace-smoke scrub-sweep

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI gate: everything must compile, pass vet, and pass the full test
# suite under the race detector.
verify: build vet race

# The benchmark lives in its own module (bench/go.mod), so `build`, `vet`
# and `test` above never compile it: bench-selftest is what catches a core
# API change that breaks it (toy sizes, a few seconds). bench-perf is the
# benchmark itself — all four BENCHMARK.json workloads, about 2.5 minutes.
bench-selftest:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

bench-perf:
	$(GO) run -C bench ./perf

bench-faults:
	$(GO) run ./cmd/pccheck-bench -faults

# Crash-point exploration sweep: simulated power cuts at every persist
# boundary of the full workload matrix, adversarial write-cache loss,
# real recovery against every image. Exits non-zero on any violation.
bench-crash:
	$(GO) run ./cmd/pccheck-bench -crash

# Network chaos sweep: seeded drops/dups/reorders, rank kills with
# restart+rejoin, and one-way partitions over a real multi-rank training
# loop, checking the global-consistency invariants (§4.1). Exits non-zero
# on any violation.
bench-chaos:
	$(GO) run ./cmd/pccheck-disttrain -chaos -chaos-seed 7

# Delta-checkpoint sweep: full vs delta bytes persisted across the sparse
# update pattern zoo, with recovery equivalence checked per pattern. Exits
# non-zero if any pattern's recovery diverges.
bench-delta:
	$(GO) run ./cmd/pccheck-bench -delta

# Tiered-durability sweep: drain bandwidth vs per-tier staleness over a
# DRAM→remote device, then the chaos phase — the slow tier torn down
# mid-run, asserting the cross-tier durability floor (everything the
# drainer acked recovers from the slow tier alone) and post-heal
# convergence. Exits non-zero on any violation.
bench-tiers:
	$(GO) run ./cmd/pccheck-bench -tiers -tier-teardown -json BENCH_tiers.json

# Benchmarks with machine-readable exports for run-to-run comparison — CI
# uploads the BENCH_*.json files as build artifacts (goodput ratio, stall
# attribution, slowdown vs budget; per-pattern delta reduction).
bench-json:
	$(GO) run ./cmd/pccheck-bench -goodput -json BENCH_goodput.json
	$(GO) run ./cmd/pccheck-bench -delta -json BENCH_delta.json

# Latent-fault scrub sweep: seeded silent corruption (bit flips, zeroed
# sectors, unreadable-poisoned ranges) injected into committed slots,
# pointer records, the superblock, delta chains and replica tiers across
# the full scenario × damage-mode × layout matrix, then a scrub sweep
# asserting every injection is detected, healed (repaired, quarantined or
# resynced), never served, and that recovery still lands on the durable
# floor. 720 cases inject ~1080 corruptions. Exits non-zero on any
# violation.
scrub-sweep:
	PCCHECK_SCRUB_SWEEP=720 $(GO) test ./internal/core/ -run TestScrubSweepMatrix -count=1 -v

# Strict Prometheus text-exposition lint of everything /metrics serves
# (recorder + goodput ledger + black box), scraped from a live
# in-process ServeMetrics endpoint.
metrics-lint:
	$(GO) run ./cmd/pccheck-metrics-lint

# Fault scenario with the flight recorder attached; validates the exported
# Chrome trace carries every pipeline phase of an in-memory save (copy and
# chunk-wait belong to staged sources only; the scenario has none).
trace-smoke:
	$(GO) run ./cmd/pccheck-bench -faults -trace-out /tmp/pccheck-trace.json
	python3 -c "import json; \
	  doc = json.load(open('/tmp/pccheck-trace.json')); \
	  names = {e['name'] for e in doc['traceEvents']}; \
	  need = {'save', 'slot-wait', 'persist', 'barrier', 'publish'}; \
	  missing = need - names; \
	  assert not missing, f'trace missing spans: {missing}'; \
	  print('trace OK:', len(doc['traceEvents']), 'events')"

# Requires staticcheck on PATH (go install honnef.co/go/tools/cmd/staticcheck@latest).
staticcheck:
	staticcheck ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
