package mburst

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/core"
	"mburst/internal/replay"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// TestEndToEndPipeline exercises the complete §4.1 deployment in one test:
// a simulated rack is polled by the collection framework, samples cross a
// real TCP socket to a collector service, land in a trace directory, are
// replayed over TCP a second time, and the final analysis of the replayed
// stream must agree exactly with an in-process analysis of the original
// counter timeline.
func TestEndToEndPipeline(t *testing.T) {
	// --- 1. Simulate and poll, streaming to a live collector. -----------
	sim, err := simnet.New(simnet.Config{
		Rack:   topo.Default(16),
		Params: workload.DefaultParams(workload.Hadoop),
		Seed:   424242,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &collector.MemSink{}
	stats := &collector.IngestStats{}
	srv := collector.ServeConfigured(ln, stats.Wrap(sink.Handle), collector.ServerConfig{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client, err := collector.NewClientConfigured(conn, collector.ClientConfig{Rack: 5, MaxBatch: 512})
	if err != nil {
		t.Fatal(err)
	}

	const port = 1
	var local []wire.Sample // ground truth captured in-process
	tee := collector.EmitterFunc(func(s wire.Sample) {
		local = append(local, s)
		client.Emit(s)
	})
	poller, err := collector.NewPoller(collector.PollerConfig{
		Interval:      25 * simclock.Microsecond,
		Counters:      []collector.CounterSpec{{Port: port, Dir: asic.TX, Kind: asic.KindBytes}},
		DedicatedCore: true,
	}, sim.Switch(), rng.New(7), tee)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(20 * simclock.Millisecond)
	poller.Install(sim.Scheduler())
	sim.Run(200 * simclock.Millisecond)
	poller.Stop()
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for len(sink.Samples()) < len(local) {
		if time.Now().After(deadline) {
			t.Fatalf("collector received %d/%d samples", len(sink.Samples()), len(local))
		}
		time.Sleep(time.Millisecond)
	}
	received := sink.Samples()
	for i := range local {
		if received[i] != local[i] {
			t.Fatalf("sample %d changed in transit", i)
		}
	}
	if stats.Snapshot().Samples != uint64(len(local)) {
		t.Errorf("ingest stats = %+v", stats.Snapshot())
	}

	// --- 2. Persist as a campaign trace. --------------------------------
	dir := filepath.Join(t.TempDir(), "campaign")
	tw, err := trace.Create(dir, trace.Meta{
		App: "hadoop", NumServers: 16, NumUplinks: 4,
		ServerSpeed: topo.Gbps10, UplinkSpeed: topo.Gbps40,
		Interval: 25 * simclock.Microsecond, WindowDur: 200 * simclock.Millisecond,
		Windows: 1, Seed: 424242,
		Counters: []collector.CounterSpec{{Port: port, Dir: asic.TX, Kind: asic.KindBytes}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteWindow(0, 5, received); err != nil {
		t.Fatal(err)
	}

	// --- 3. Replay the trace over TCP into a second collector. ----------
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink2 := &collector.MemSink{}
	srv2 := collector.ServeConfigured(ln2, sink2.Handle, collector.ServerConfig{})
	defer srv2.Close()
	conn2, err := net.Dial("tcp", srv2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st, err := replay.Run(context.Background(), dir, conn2, replay.Options{Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	conn2.Close()
	for len(sink2.Samples()) < st.Samples {
		if time.Now().After(deadline) {
			t.Fatalf("replay delivered %d/%d", len(sink2.Samples()), st.Samples)
		}
		time.Sleep(time.Millisecond)
	}

	// --- 4. Analyses of original and twice-transported streams agree. ---
	speed := sim.Switch().Port(port).Speed()
	a, err := analysis.UtilizationSeries(local, speed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := analysis.UtilizationSeries(sink2.Samples(), speed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("series lengths differ: %d vs %d", len(a), len(b))
	}
	burstsA := analysis.Bursts(a, 0)
	burstsB := analysis.Bursts(b, 0)
	if len(burstsA) != len(burstsB) {
		t.Fatalf("burst counts differ: %d vs %d", len(burstsA), len(burstsB))
	}
	for i := range burstsA {
		if burstsA[i] != burstsB[i] {
			t.Fatalf("burst %d differs after the round trip", i)
		}
	}
	if len(burstsA) == 0 {
		t.Error("no bursts observed on a hadoop port in 200ms; pipeline or workload broken")
	}
}

// TestQuickReportDeterminism runs the smallest full-figure campaign a
// second time and requires a byte-identical report — the repository's
// umbrella reproducibility guarantee.
func TestQuickReportDeterminism(t *testing.T) {
	exp, err := core.NewExperiment(core.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, err := quickReport()
	if err != nil {
		t.Fatal(err)
	}
	if first, second := first.Format(), rep.Format(); first != second {
		t.Fatalf("two QuickConfig reports differ:\n--- first\n%s\n--- second\n%s", first, second)
	}
}
