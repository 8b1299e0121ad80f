#!/bin/sh
# CI gate: formatting, vet, mblint, build, and the full test suite under
# the race detector with shuffled test order. Run from the repository
# root (or any subdirectory).
set -eux

cd "$(dirname "$0")/.."

# Formatting drift fails the build (gofmt prints offending files).
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt needed on:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

go vet ./...
go build ./...

# mblint enforces the determinism/clock/RNG/telemetry invariants plus
# the interprocedural rules — clockflow taint, hotpath zero-alloc,
# lock-order cycles (see README "Static analysis"). Together with go vet
# above it is the blocking static-analysis gate. The JSON report is
# published as a CI artifact: {"findings": [...], "rule_counts": {...},
# "callgraph": {packages, functions, static_edges, dynamic_edges}} —
# findings is an empty array when clean, and any finding blocks the
# build.
if ! go run ./cmd/mblint -json ./... > LINT_findings.json; then
	echo "mblint findings:" >&2
	cat LINT_findings.json >&2
	exit 1
fi

# -shuffle=on catches order-dependent tests; go test logs the seed for
# reproduction.
go test -race -shuffle=on ./...

# Fuzz smoke: five seconds each on the two wire-decoder targets, whole
# streams and the MBW3 delta chain, on the archive recovery scan and the
# manifest it reads (with the SkipTo walk a resume relies on), and on
# the checkpoint loader — one shard's file alone, and beside an intact
# shard's through the aggregator's restore and merge. `go test` above
# only replays their seed corpora; this lets the mutator run, briefly, on
# every build. `make fuzz` is the longer soak. The recovery and
# checkpoint seeds are kilobytes: left at its 60s default, minimizing the
# first new-coverage input would stall the mutator for the whole run.
go test -run='^$' -fuzz=FuzzReadBatch -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzMBW3Chain -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzTraceRecover -fuzztime=5s -fuzzminimizetime=1s ./internal/trace
go test -run='^$' -fuzz=FuzzArchiveManifest -fuzztime=5s -fuzzminimizetime=1s ./internal/trace
go test -run='^$' -fuzz=FuzzLoadCheckpoint -fuzztime=5s -fuzzminimizetime=1s ./internal/collector
go test -run='^$' -fuzz=FuzzLoadFleetCheckpoint -fuzztime=5s -fuzzminimizetime=1s ./internal/collector

# Reconnect-test stress: these tests synchronise with the client's
# flusher goroutine through its injected Sleep and dial hooks, and used to
# fail about one loaded run in 40 when they polled a wall clock instead.
# Fifty repetitions at one and two CPUs keep that from creeping back.
go test -race -count=50 -cpu 1,2 -run 'TestReconnectingClient' ./internal/collector

# Track serial-vs-parallel campaign wall-clock across PRs. The artifact
# records the host CPU count; speedup is only meaningful on multi-core
# runners.
MBURST_BENCH_OUT="$PWD/BENCH_runner.json" \
	go test -run TestRunnerBenchArtifact -count=1 ./internal/core

# Streaming-engine memory gate: core.AnalyzeTrace vs the test-local
# materializing reference (equivalence_test.go) over the same recorded
# campaign. Fails the build unless AnalyzeTrace peaks >= 5x below
# whole-window materialization (and allocates >= 5x less). Runs without
# -race: the measurement times the allocator itself.
MBURST_STREAM_BENCH_OUT="$PWD/BENCH_stream.json" \
	go test -run TestStreamingMemoryArtifact -count=1 ./internal/core

# Pipeline-tracing overhead gate: the polling hot path with span
# recording must stay within 5% of untraced. Runs without -race for the
# same reason as the memory gate — it times the hot loop itself.
MBURST_PTRACE_BENCH_OUT="$PWD/BENCH_ptrace.json" \
	go test -run TestPtraceOverheadArtifact -count=1 ./internal/collector

# Wire-format gate: MBW3 must put >= 4x fewer bytes on the wire than the
# MBW2 row framing would (its nominal size; nothing writes it) on the
# full-counter Web workload, and the steady-state encode and
# ingest paths must allocate nothing per batch. The artifact records the
# ingest-throughput ceiling alongside. Runs without -race: it counts
# allocations on the hot paths.
MBURST_WIRE_BENCH_OUT="$PWD/BENCH_wire.json" \
	go test -run TestWireBenchArtifact -count=1 ./internal/core

# Chaos soak: generated fault schedules against the collection pipeline,
# asserting byte-exact recovery against ASIC ground truth, zero-fault
# byte-identity, epoch-gated restart recovery, and collector-crash
# recovery (kill / torn-write / short-write schedules against the
# durable archive + checkpoint plane). Bounded runtime; summary
# published as an artifact.
MBURST_FAULT_OUT="$PWD/FAULT_soak.json" \
	go test -race -run 'TestChaosSoak|TestAgentRestartRecovery|TestCollectorCrashSoak' -count=1 ./internal/fault

# Fleet crash soak: the same crash kinds against the sharded collection
# plane — generated kill / torn / short-write schedules striking
# collector shards mid-campaign, each shard resuming from its archive +
# checkpoint. Merges the "fleet" ledger into the same artifact.
MBURST_FAULT_OUT="$PWD/FAULT_soak.json" \
	go test -race -run 'TestFleetCrashSoak' -count=1 ./internal/core

# Durability gate: every seeded crash schedule — single-collector and
# fleet ledgers both — must have recovered byte-exact state against its
# uninterrupted oracle (hence exactly two "byte_exact": true markers).
[ "$(grep -c '"byte_exact": true' FAULT_soak.json)" -eq 2 ]

# Fleet-scale gate: the ISSUE's reference campaign — 1000 racks fanned
# over 8 collector shards in-process — must complete with fleet figures
# bit-identical to the single-collector oracle, and the artifact records
# ingest throughput, checkpoint-merge wall-clock, and bytes fanned in
# (floors enforced inside the test).
MBURST_FLEET_BENCH_OUT="$PWD/BENCH_fleet.json" \
	go test -run TestFleetBenchArtifact -count=1 ./internal/core
grep -q '"byte_exact": true' BENCH_fleet.json

# Benchmark smoke: every workload of the repo benchmark once in -quick
# mode. A correctness check only — the command exits non-zero when a
# workload's oracle fails — with no timing gate.
go run ./bench -workload all -quick

# examples/ has no tests: run webrack and require its Table 2 line.
make examples

# Real-process smoke: the cmd/ binaries as separate processes — mbagent
# into a durable mbcollectd over a loopback socket, SIGTERM, mbdump reads
# back exactly what was delivered; then mbfleet with a shard kill, whose
# directory must be campaign.json + its shard stores and dump to the
# samples it logged; then mbreplay of a parent-written MBW1 recording into
# a durable mbcollectd, whose archive must hold the same samples as MBW3.
# No timing gate.
./scripts/smoke.sh
