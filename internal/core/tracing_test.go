package core

import (
	"bytes"
	"context"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// recordTracedCampaign runs the faulted runnerConfig campaign with a
// span tracer attached and returns the canonical dump bytes.
func recordTracedCampaign(t *testing.T, workers int) ([]byte, *ptrace.Tracer) {
	t.Helper()
	cfg := runnerConfig(workers)
	sched := stuckSchedule()
	cfg.FaultSchedule = &sched
	tracer := ptrace.New(ptrace.Config{Capacity: 1 << 14, Seed: cfg.Seed})
	cfg.Tracer = tracer
	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "c")
	err = exp.RecordCampaign(context.Background(), workload.Cache, dir, 0, "traced",
		exp.RandomPortCounters(workload.Cache))
	if err != nil {
		t.Fatal(err)
	}
	if tracer.Evicted() != 0 {
		t.Fatalf("span ring evicted %d spans; byte-identity needs a ring that holds the campaign", tracer.Evicted())
	}
	var buf bytes.Buffer
	if err := tracer.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tracer
}

// TestCampaignTraceByteIdentity is the ISSUE 6 acceptance invariant: the
// span dump of a faulted campaign is byte-identical across worker
// counts, and every persisted batch carries a complete
// poll→encode→send→ingest→gate→archive→figures chain.
func TestCampaignTraceByteIdentity(t *testing.T) {
	serial, tracer := recordTracedCampaign(t, 1)
	parallel, _ := recordTracedCampaign(t, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("span dumps differ by worker count: serial %d bytes, parallel %d bytes",
			len(serial), len(parallel))
	}

	spans := tracer.Snapshot()
	if len(spans) == 0 {
		t.Fatal("campaign recorded no spans")
	}
	views := ptrace.GroupTraces(spans)
	for _, v := range views {
		// All stages except client.backoff and the collector durability
		// markers (checkpoint/recover), which a campaign pipeline never hits.
		const wantSpans = 7
		if len(v.Spans) != wantSpans {
			t.Fatalf("trace %x has %d spans, want %d: %+v", uint64(v.ID), len(v.Spans), wantSpans, v.Spans)
		}
		for i, stage := range []ptrace.Stage{
			ptrace.StagePollRead, ptrace.StageWireEncode, ptrace.StageClientSend,
			ptrace.StageServerIngest, ptrace.StageEpochGate, ptrace.StageArchiveWrite,
			ptrace.StageFiguresApply,
		} {
			if v.Spans[i].Stage != stage {
				t.Fatalf("trace %x span %d = %s, want %s", uint64(v.ID), i, v.Spans[i].Stage, stage)
			}
		}
		// Post-poll stages run back-to-back from the poll window's end:
		// the chain is contiguous in simulated time.
		for i := 2; i < len(v.Spans); i++ {
			if v.Spans[i].Start != v.Spans[i-1].Stop {
				t.Fatalf("trace %x: %s starts at %v, previous %s stopped at %v",
					uint64(v.ID), v.Spans[i].Stage, v.Spans[i].Start, v.Spans[i-1].Stage, v.Spans[i-1].Stop)
			}
		}
		if got := v.Spans[4].Verdict; got != ptrace.VerdictAccept {
			t.Errorf("trace %x gate verdict = %q, want %q", uint64(v.ID), got, ptrace.VerdictAccept)
		}
	}

	// The stuck/stall schedule is active in every cell, so some poll.read
	// spans must carry the overlapping fault kinds as an attribute — that
	// is how a stall becomes visible in the waterfall.
	var faulted int
	kinds := map[string]bool{}
	for _, sp := range spans {
		if sp.Stage == ptrace.StagePollRead && sp.Fault != "" {
			faulted++
			for _, k := range strings.Split(sp.Fault, ",") {
				kinds[k] = true
			}
		}
	}
	if faulted == 0 {
		t.Error("no poll.read span carries a fault attribute despite an active schedule")
	}
	if !kinds["stuck"] || !kinds["stall"] {
		t.Errorf("fault kinds on poll.read = %v, want stuck and stall", kinds)
	}
}

// TestCampaignTraceSampling pins deterministic head sampling at campaign
// scale: a sampled tracer keeps a strict, seed-stable subset of the full
// run's traces with every kept trace's chain intact.
func TestCampaignTraceSampling(t *testing.T) {
	record := func(rate float64) map[ptrace.TraceID]int {
		cfg := runnerConfig(2)
		tracer := ptrace.New(ptrace.Config{Capacity: 1 << 14, Seed: cfg.Seed, SampleRate: rate})
		cfg.Tracer = tracer
		exp, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "c")
		err = exp.RecordCampaign(context.Background(), workload.Cache, dir, 0, "sampled",
			exp.RandomPortCounters(workload.Cache))
		if err != nil {
			t.Fatal(err)
		}
		out := map[ptrace.TraceID]int{}
		for _, sp := range tracer.Snapshot() {
			out[sp.Trace]++
		}
		return out
	}
	full := record(0)
	sampled := record(0.5)
	if len(sampled) == 0 || len(sampled) >= len(full) {
		t.Fatalf("sampled %d of %d traces; want a strict non-empty subset", len(sampled), len(full))
	}
	for id, n := range sampled {
		if full[id] == 0 {
			t.Errorf("sampled trace %x absent from the full run", uint64(id))
		}
		if n != 7 { // see TestCampaignTraceByteIdentity's wantSpans
			t.Errorf("sampled trace %x has %d spans, want 7", uint64(id), n)
		}
	}
	if again := record(0.5); len(again) != len(sampled) {
		t.Errorf("re-run kept %d traces, first run kept %d; head sampling must be seed-stable", len(again), len(sampled))
	}
}

// TestLiveAndCampaignTracesAgree holds recordCellTrace's claim: one batch
// recorded by the campaign recorder, and the same batch sent by a traced
// agent client over loopback into a traced server and on into a traced
// durable shard with live figures, leave the same seven spans, every
// field equal.
func TestLiveAndCampaignTracesAgree(t *testing.T) {
	const rack, n = 3, 300
	samples := make([]wire.Sample, n)
	for i := range samples {
		samples[i] = wire.Sample{
			Time: simclock.Epoch.Add(simclock.Micros(int64(25 * (i + 1)))),
			Port: 1, Dir: asic.RX, Kind: asic.KindBytes, Value: uint64(i) * 1500,
		}
	}
	campaign := ptrace.New(ptrace.Config{Capacity: 64})
	recordCellTrace(campaign, &CellRun{Cell: Cell{RackID: rack}, Samples: samples}, 0)

	live := ptrace.New(ptrace.Config{Capacity: 64})
	arch, err := trace.CreateArchive(filepath.Join(t.TempDir(), "a"), trace.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	figs, err := collector.NewLiveFigures(collector.LiveFiguresConfig{
		SpeedOf: func(uint32, uint16) uint64 { return 10_000_000_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := &collector.IngestStats{}
	sh, err := collector.NewShard(collector.ShardConfig{
		Stats: stats, Figures: figs, Archive: arch, Tracer: live,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := collector.ServeConfigured(ln, sh.Handle, collector.ServerConfig{Tracer: live})
	defer srv.Close()
	// One batch, below the client's MaxBatch. Its flusher may see the
	// first Emit before the last, so the dial waits for every sample:
	// the batch taken after it holds all n.
	emitted := make(chan struct{})
	c := collector.NewReconnectingClient(func() (io.WriteCloser, error) {
		<-emitted
		return net.Dial("tcp", ln.Addr().String())
	}, collector.ReconnectingClientConfig{Rack: rack, Tracer: live})
	for _, s := range samples {
		c.Emit(s)
	}
	close(emitted)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); stats.Snapshot().Samples < n; {
		if time.Now().After(deadline) {
			t.Fatalf("collector ingested %d of %d samples", stats.Snapshot().Samples, n)
		}
		time.Sleep(time.Millisecond)
	}

	want, got := campaign.Snapshot(), live.Snapshot()
	if len(want) != 7 {
		t.Fatalf("campaign recorded %d spans, want 7: %+v", len(want), want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("live spans differ from the campaign's:\nlive:     %+v\ncampaign: %+v", got, want)
	}
}
