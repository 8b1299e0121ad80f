#!/bin/sh
# CI gate: formatting, vet, mblint, build, and the full test suite under
# the race detector with shuffled test order. Run from the repository
# root (or any subdirectory). No step gates on how fast anything runs —
# timing is the repo benchmark's job (bench/, BENCHMARK.json); the only
# clocks left are the socket tests' liveness deadlines of 5-10 s.
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
# the interprocedural rules — clockflow (wall-clock calls, direct or
# through a chain) and lockorder (lock-order cycles and re-entry) (see
# README "Static analysis"). Together with go vet above (whose copylocks
# check guards mutexes passed by value) it is the blocking
# static-analysis gate. The hot paths' zero-allocation contract is not a
# lint rule: each such function has a named AllocsPerRun test, which the
# test run below executes. The JSON report is
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
# reproduction. This run includes the size and allocation gates: MBW3 >= 4x
# below the row framing, AnalyzeTrace >= 5x fewer bytes allocated than its
# materializing reference, and the 1000-rack fleet byte-exact.
go test -race -shuffle=on ./...

# The paper's claims: EXPERIMENTS.md against one full-scale RunAll at
# seed 1 (every quoted number printed, every ✅ predicate true). Under the
# race detector above only its quick-scale half runs — the full campaign
# takes ~15× longer there — so the full half runs once here, without it.
go test -count=1 -run 'TestExperiments' .

# Fuzz smoke: five seconds each on the two wire-decoder targets, whole
# streams (FuzzReadBatch reads each input through the buffered and the
# unbuffered path, which must agree batch for batch) and the MBW3 delta
# chain, on the archive recovery scan and the manifest it reads (with
# the SkipTo walk a resume relies on), on a fleet directory's
# campaign.json (whose shard names must never alias), on the
# checkpoint loader — one shard's file alone, and beside an intact
# shard's through the aggregator's restore and merge — on the two
# fault-spec parsers that read -faults flags, and on the span-dump reader
# behind mbtrace, whose report must render any dump that decodes.
# `go test` above only replays their seed corpora; this lets the mutator
# run, briefly, on every build. `make fuzz` is the longer soak. Left at
# its 60s default, minimizing the first new-coverage input would stall
# the mutator for the whole run on the recovery, campaign.json and
# checkpoint targets.
go test -run='^$' -fuzz=FuzzReadBatch -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzMBW3Chain -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzTraceRecover -fuzztime=5s -fuzzminimizetime=1s ./internal/trace
go test -run='^$' -fuzz=FuzzArchiveManifest -fuzztime=5s -fuzzminimizetime=1s ./internal/trace
go test -run='^$' -fuzz=FuzzFleetMeta -fuzztime=5s -fuzzminimizetime=1s ./internal/trace
go test -run='^$' -fuzz=FuzzLoadCheckpoint -fuzztime=5s -fuzzminimizetime=1s ./internal/collector
go test -run='^$' -fuzz=FuzzLoadFleetCheckpoint -fuzztime=5s -fuzzminimizetime=1s ./internal/collector
go test -run='^$' -fuzz=FuzzParseSchedule -fuzztime=5s ./internal/fault
go test -run='^$' -fuzz=FuzzParseGen -fuzztime=5s ./internal/fault
go test -run='^$' -fuzz=FuzzReadDump -fuzztime=5s ./internal/ptrace

# Reconnect-test stress: these tests synchronise with the client's
# flusher goroutine through its injected Sleep and dial hooks, and used to
# fail about one loaded run in 40 when they polled a wall clock instead.
# Fifty repetitions at one and two CPUs keep that from creeping back.
go test -race -count=50 -cpu 1,2 -run 'TestReconnectingClient' ./internal/collector

# Read coalescing: the collector and wire.Reader read a socket or file once
# per buffer-full, not several times per frame. Both bounds are counts of
# Read calls; ten repetitions at one and two CPUs under the race detector
# show they hold however the goroutines are scheduled.
go test -race -count=10 -cpu 1,2 -run 'TestServerCoalescesFrameReads|TestReaderReadsOncePerBuffer' ./internal/collector ./internal/wire

# Resume is concurrent: the checkpoint decodes and restores on a goroutine
# of its own while the archive tail is read. Ten repetitions at one and
# two CPUs under the race detector run the law against the sequential
# reference, the resume round trips and the resume's clock readings under
# whatever schedule the runtime picks.
go test -race -count=10 -cpu 1,2 -run 'TestResumeMatchesReference|TestDurableIngestResume|TestRecoveryMetricsMeasureCheckpointAndResume' ./internal/collector

# Simulator laws: the replaced data-path and kernel bodies live on as
# ref… functions (refAdd, refApplyTick, refScheduler) that testing/quick
# compares against, and the per-tick, per-event and per-poll paths have
# zero-allocation counts. quick.Check draws a fresh seed each run, so
# twenty repetitions check twenty times the generated cases. The grouped
# campaign runner is held the same way to refRunCell, the one-rack-per-cell
# runner it replaced: each repetition draws its groups from the next seed.
# The wire writer that passes received frames through is held to
# refWriteBatch, the always-encode body it replaced, over generated
# multi-rack schedules, and the shard's resume to refResume, its
# sequential body, over generated crashes. No step reads a clock.
go test -count=20 -run 'MatchesReference|QuickSortedFiring|AllocatesNothing' \
	./internal/asic ./internal/eventq ./internal/simnet ./internal/collector
go test -count=20 -run TestGroupedCellsMatchReference ./internal/core
go test -count=20 -run TestPassThroughMatchesReference ./internal/wire

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

# Benchmark smoke: every workload of the repo benchmark once in -quick
# mode. A correctness check only — the command exits non-zero when a
# workload's oracle fails — with no timing gate.
go run ./bench -workload all -quick

# examples/ has no tests: run all seven and require each one's whole
# output to match its golden under examples/testdata/.
make examples

# Real-process smoke: the cmd/ binaries as separate processes — mbagent
# into a durable, tracing mbcollectd over a loopback socket, mbtrace -url
# finds one ingest, gate, archive and figures span per trace, SIGTERM,
# mbdump reads back exactly what was delivered; then mbfleet with a shard kill, whose
# directory must be campaign.json + its shard stores and dump to the
# samples it logged; then mbreplay of a parent-written MBW1 recording into
# a durable mbcollectd, whose archive must hold the same samples as MBW3.
# No timing gate.
./scripts/smoke.sh
