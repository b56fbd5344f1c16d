# Tier-1 verification plus the race-checked variant the concurrency in
# internal/eval requires. `make check` is the gate every change should pass.

GO ?= go

.PHONY: check fmt vet vet-perfbench test-perfbench staticcheck build test race race-telemetry race-hub race-cluster race-drift race-timing race-scenarios coap-smoke bench bench-scan bench-eval bench-hub bench-recovery bench-cluster bench-drift bench-timing bench-scenarios fuzz-smoke perf-gate

check: fmt vet vet-perfbench test-perfbench staticcheck build race-telemetry race-hub race-cluster race-drift race-timing race-scenarios coap-smoke race fuzz-smoke perf-gate

# Every Go file must be gofmt-clean; the gate lists the files that are not.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "run gofmt -w on the files above"; exit 1; }

vet:
	$(GO) vet ./...

# The benchmark is a module of its own (perfbench/go.mod), so ./... above
# does not reach it. Vetting it here makes a change to a public API the
# benchmark uses fail the gate rather than the benchmark run.
vet-perfbench:
	cd perfbench && GOWORK=off $(GO) vet ./...

# The benchmark's own self-test: every metric BENCHMARK.json declares is
# printed, and the oracle rejects a mutated alert. It runs against the
# checkout's sources, so a change that breaks the benchmark fails here.
test-perfbench:
	cd perfbench && GOWORK=off $(GO) test ./...

# staticcheck is optional tooling: run it when the binary is on PATH, skip
# with a notice otherwise so `make check` works in hermetic containers.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The evaluation harness fans trials across goroutines; always race-check it.
race:
	$(GO) test -race ./...

# Fast focused gate on the metrics registry: every pipeline stage hammers
# these counters concurrently, so its race tests run first and by name.
race-telemetry:
	$(GO) test -race -count 2 ./internal/telemetry/

# The multi-tenant hub is the most concurrency-dense package (sharded
# worker pool, live resize, eviction racing ingestion); gate it by name.
race-hub:
	$(GO) test -race ./internal/hub/...

# The federated cluster's seeded chaos drill: three nodes, dropped and
# slowed links, one partition, one live migration, one SIGKILL mid-ingest —
# every home must end bit-identical to a solo gateway, race-checked.
race-cluster:
	$(GO) test -race -run 'TestCluster' ./internal/cluster/

# Online-adaptation drill under the race detector: adapter admission and
# decay, plus the gateway's adapt → checkpoint → restore → rollback path,
# which must reproduce detector output and Explain traces bit for bit.
race-drift:
	$(GO) test -race -run 'Adapt' ./internal/core/ ./internal/gateway/

# Timing-check drill under the race detector: the pluggable check pipeline,
# interval-sketch reinforcement, and the checkpoint path that must resume
# dwell/last-fire state bit for bit.
race-timing:
	$(GO) test -race -run 'Timing' ./internal/core/ ./internal/gateway/ ./internal/faults/

# Multi-fault drill under the race detector: concurrent identification
# episodes, the scenario pipeline (ghosts, replays, occupancy views), and
# the mid-storm checkpoint kill that must resume two open episodes bit for
# bit.
race-scenarios:
	$(GO) test -race -run 'MultiFault|Scenario|Occupancy|Ghost' ./internal/core/ ./internal/gateway/ ./internal/faults/ ./internal/simhome/

# CoAP transport gate: the package's dedup, retransmission and exactly-once
# tests twice under the race detector, then 70,000 device→gateway round
# trips on one agent, which wraps its 16-bit Message ID within the dedup
# cache's exchange lifetime (a stale cached ACK there stalls the agent).
coap-smoke:
	$(GO) test -race -count 2 ./internal/coap/
	$(GO) test -run '^$$' -bench BenchmarkAgentFlush -benchtime 70000x ./internal/gateway/

# Full benchmark sweep (regenerates every table/figure on the scaled-down
# protocol).
bench:
	$(GO) test -bench . -benchtime 1x -run TestBenchFixtures .

# Perf-trajectory benches for the PR acceptance numbers.
bench-scan:
	$(GO) test -bench 'BenchmarkScan$$' -run TestBenchFixtures .

bench-eval:
	$(GO) test -bench 'BenchmarkEvaluateParallel$$' -benchtime 2x -run TestBenchFixtures .
	$(GO) run ./cmd/dice-eval -exp latency -trials 8 -benchjson BENCH_eval.json

# Multi-home hub throughput (binary batch path vs JSON baseline)
# → BENCH_hub.json.
bench-hub:
	$(GO) run ./cmd/dice-eval -exp hub

# WAL fsync pricing + crash-recovery timing → BENCH_recovery.json.
bench-recovery:
	$(GO) run ./cmd/dice-eval -exp recovery

# Federated cluster drill: migration + node-kill fail-over latency and
# cluster-vs-solo efficiency → BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/dice-eval -exp cluster

# Online-adaptation drill: static vs adaptive detector on a drifted stream,
# plus post-adaptation fault injection → BENCH_drift.json. The run itself
# errors when the adaptive arm misses a fault or fails to beat the static
# arm's false alarms.
bench-drift:
	$(GO) run ./cmd/dice-eval -exp drift

# Timing-check drill: structural-only vs timing-aware arms on stream-stretch
# faults → BENCH_timing.json. The run itself errors when the timing arm
# catches <80% of the structurally missed faults or flags any clean window.
bench-timing:
	$(GO) run ./cmd/dice-eval -exp timing

# Adversarial scenario library: per-scenario detection/identification
# precision-recall + benign false-alarm floor → BENCH_scenarios.json. The
# run itself errors on any clean/benign false alarm or when 2-fault storms
# name every injected device in <80% of trials.
bench-scenarios:
	$(GO) run ./cmd/dice-eval -exp scenarios

# Short fuzz passes over the wire decoders (binary batch + CoAP), the
# interval-sketch codec and the window builder's fold (held to a map-keyed
# reference). Long campaigns run the same targets with a bigger -fuzztime.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBatch$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzMessageUnmarshal$$' -fuzztime 5s ./internal/coap/
	$(GO) test -run '^$$' -fuzz 'FuzzIntervalSketch$$' -fuzztime 5s ./internal/markov/
	$(GO) test -run '^$$' -fuzz 'FuzzBuilderFold$$' -fuzztime 5s ./internal/window/

# CI perf gate: regenerate five benchmarks into /tmp and compare each with
# its committed baseline through dice-benchdiff, failing on a regression
# beyond the tolerance (15% unless set):
#   - hub: the binary/JSON ingest speedup ratio (BENCH_hub.json);
#   - cluster: federation efficiency, cluster over solo throughput, at a
#     40% tolerance (BENCH_cluster.json);
#   - drift: the adapter's false-alarm reduction, with zero missed faults
#     (BENCH_drift.json);
#   - timing: the timing check's catch rate over structurally missed
#     faults, with zero flagged clean windows (BENCH_timing.json);
#   - scenarios: zero benign false alarms and the storm-2 all-named rate
#     (BENCH_scenarios.json).
# Each gate compares a ratio or a count, not raw throughput, so it is
# stable across machines of different speeds.
perf-gate:
	$(GO) run ./cmd/dice-eval -exp hub -hubjson /tmp/dice-benchdiff-hub.json >/dev/null
	$(GO) run ./cmd/dice-benchdiff -mode hub -baseline BENCH_hub.json -fresh /tmp/dice-benchdiff-hub.json
	$(GO) run ./cmd/dice-eval -exp cluster -clusterjson /tmp/dice-benchdiff-cluster.json >/dev/null
	$(GO) run ./cmd/dice-benchdiff -mode cluster -baseline BENCH_cluster.json -fresh /tmp/dice-benchdiff-cluster.json -tolerance 0.4
	$(GO) run ./cmd/dice-eval -exp drift -driftjson /tmp/dice-benchdiff-drift.json >/dev/null
	$(GO) run ./cmd/dice-benchdiff -mode drift -baseline BENCH_drift.json -fresh /tmp/dice-benchdiff-drift.json
	$(GO) run ./cmd/dice-eval -exp timing -timingjson /tmp/dice-benchdiff-timing.json >/dev/null
	$(GO) run ./cmd/dice-benchdiff -mode timing -baseline BENCH_timing.json -fresh /tmp/dice-benchdiff-timing.json
	$(GO) run ./cmd/dice-eval -exp scenarios -scenariosjson /tmp/dice-benchdiff-scenarios.json >/dev/null
	$(GO) run ./cmd/dice-benchdiff -mode scenarios -baseline BENCH_scenarios.json -fresh /tmp/dice-benchdiff-scenarios.json
