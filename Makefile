GO ?= go

.PHONY: build test race vet lint bench bench-smoke bench-pair smoke examples fuzz chaos crash fleet trace ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs mblint, the repo-specific analyzer enforcing determinism,
# clock, RNG, and telemetry invariants (see README "Static analysis").
lint:
	$(GO) run ./cmd/mblint ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# bench-smoke runs every workload of the repo benchmark (./bench) once in
# -quick mode: it exits non-zero when a workload's oracle fails, and
# gates no timing.
bench-smoke:
	$(GO) run ./bench -workload all -quick

# bench-pair runs one workload as alternating parent/change pairs with
# identical benchmark code on both sides and prints the comparison table
# (medians, worse-by, parent IQR, pair wins); see scripts/bench_pair.sh.
PARENT ?= HEAD~1
WORKLOAD ?= fleet_durable
PAIRS ?= 10
bench-pair:
	./scripts/bench_pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# smoke drives the real binaries: mbagent into a durable, tracing
# mbcollectd over a real socket, whose spans mbtrace -url must count one
# per stage per trace, SIGTERM, then mbdump must read back exactly what
# the agent delivered; then mbfleet with a shard kill into a fleet directory,
# which must hold campaign.json plus its shard stores and dump to the
# samples mbfleet logged; then mbreplay of a parent-written MBW1 recording
# into a second durable mbcollectd, whose archive must dump to the same
# samples and be MBW3 (scripts/smoke.sh; no timing gate).
smoke:
	./scripts/smoke.sh

# examples runs the seven programs under examples/ — the consumers of the
# core API outside cmd/ and the tests, and callers of the slice API
# internal/analysis keeps (UtilizationSeries, Bursts, BufferVsHotPorts,
# HotFraction, ServerCorrelation) — and fails unless each one's whole
# stdout matches examples/testdata/<name>.golden. Every example is
# deterministic except livecollect's "listening on" line, which names an
# ephemeral port and is filtered out before the comparison.
EXAMPLES = cachegroups detector fabrictier hadoopbuffer livecollect quickstart webrack
examples:
	@for e in $(EXAMPLES); do \
		echo "examples/$$e"; \
		$(GO) run ./examples/$$e | grep -v '^collector service listening on ' | \
			diff -u examples/testdata/$$e.golden - || exit 1; \
	done

# fuzz exercises the parsers that face untrusted bytes:
#   - the wire decoder: whole streams, and the MBW3 delta chain from the
#     middle of one;
#   - the archive recovery scan, which must truncate any torn tail without
#     panicking, in a collector's log and in a recorded campaign, and the
#     archive manifest it reads;
#   - a fleet directory's campaign.json, whose accepted shard names must
#     name distinct subdirectories;
#   - the shard checkpoint loader, MBC1 and legacy JSON: whatever loads
#     must restore, take traffic and round-trip, and MBC1 must decode
#     within an allocation bound; and the same loader one level up, one
#     shard's checkpoint of a two-shard fleet through the aggregator's
#     restore and merge;
#   - the two fault-spec parsers behind -faults, whose accepted specs must
#     round-trip through String;
#   - the span-dump reader behind mbtrace -in and -url, whose every
#     decoded dump must render and merge without panicking.
# FUZZTIME bounds each target (default 10s). Left at its 60s default,
# minimizing each new-coverage input of the recovery, campaign.json and
# checkpoint targets would eat the whole budget.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadBatch -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzMBW3Chain -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzTraceRecover -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzArchiveManifest -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzFleetMeta -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzLoadCheckpoint -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/collector
	$(GO) test -run='^$$' -fuzz=FuzzLoadFleetCheckpoint -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/collector
	$(GO) test -run='^$$' -fuzz=FuzzParseSchedule -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzParseGen -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run='^$$' -fuzz=FuzzReadDump -fuzztime=$(FUZZTIME) ./internal/ptrace

# chaos runs the fault-injection soak under the race detector: generated
# fault schedules against the poll/recover pipeline, the epoch-gated
# agent-restart scenario, and the collector-crash recovery soak. Writes
# a FAULT_soak.json summary.
chaos:
	MBURST_FAULT_OUT="$(CURDIR)/FAULT_soak.json" $(GO) test -race -run 'TestChaosSoak|TestAgentRestartRecovery|TestCollectorCrashSoak' -count=1 ./internal/fault

# crash runs only the collector-crash soak: seeded kill / torn-write /
# short-write schedules against the durable collection plane, asserting
# byte-exact recovery against an uninterrupted oracle.
crash:
	MBURST_FAULT_OUT="$(CURDIR)/FAULT_soak.json" $(GO) test -race -run 'TestCollectorCrashSoak' -count=1 -v ./internal/fault

# fleet runs the 1000-rack sharded campaign (8 collector shards
# in-process, byte-exactness verified against a single-collector
# oracle), then the fleet crash soak (see README "Fleet-scale
# collection").
fleet:
	$(GO) run ./cmd/mbfleet -racks 1000 -shards 8 -oracle
	MBURST_FAULT_OUT="$(CURDIR)/FAULT_soak.json" $(GO) test -race -run 'TestFleetCrashSoak' -count=1 ./internal/core

# trace records a small faulted campaign with span tracing and renders
# the waterfall + critical path with mbtrace (see README "Pipeline
# tracing"). The dump is byte-identical for any -workers count.
trace:
	rm -rf /tmp/mburst-trace-demo
	$(GO) run ./cmd/mbsim -app web -racks 1 -windows 2 -window 20ms \
		-faults 'stuck@4ms+2ms,stall@12ms+5ms:500µs' \
		-out /tmp/mburst-trace-demo -trace /tmp/mburst-trace-demo.spans.json
	$(GO) run ./cmd/mbtrace -in /tmp/mburst-trace-demo.spans.json -n 3

ci: lint
	./scripts/ci.sh
