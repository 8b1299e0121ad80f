package fault

import (
	"net"
	"testing"
	"time"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/eventq"
	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// waitSamples blocks until the sink has ingested n samples.
func waitSamples(t *testing.T, sink *collector.MemSink, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(sink.Samples()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("collector got %d/%d samples", len(sink.Samples()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAgentRestartRecovery is the end-to-end degradation story: an agent
// crashes mid-campaign, restarts with a bumped epoch, and a stale batch
// from its dead incarnation straggles in afterwards. The epoch-gated
// collector drops the straggler, and gap-aware reconstruction over the
// delivered stream recovers the exact ASIC byte total — the crash costs
// resolution (one wide span over the downtime), never bytes.
func TestAgentRestartRecovery(t *testing.T) {
	// One switch outlives both agent incarnations: restarts do not reset
	// ASIC counters.
	sw := asic.New(asic.Config{
		PortSpeeds:  []uint64{10e9, 40e9},
		BufferBytes: 1 << 20,
		Alpha:       1,
	})
	full := asic.TrafficProfile{0, 0, 0, 0, 0, 1}
	sched := eventq.NewScheduler()
	end := simclock.Epoch.Add(60 * simclock.Millisecond)
	var drive func(now simclock.Time)
	drive = func(now simclock.Time) {
		sw.OfferTx(0, 1500, full)
		sw.Tick(simclock.Micros(10))
		if now < end {
			sched.At(now.Add(simclock.Micros(10)), drive)
		}
	}
	sched.At(simclock.Epoch, drive)

	// pollPhase records one incarnation's samples, with ASIC ground truth
	// captured at each emission.
	pollPhase := func(until simclock.Time) (samples []wire.Sample, truth []uint64) {
		p, err := collector.NewPoller(collector.PollerConfig{
			Interval:      25 * simclock.Microsecond,
			Counters:      []collector.CounterSpec{{Port: 0, Dir: asic.TX, Kind: asic.KindBytes}},
			DedicatedCore: true,
		}, sw, rng.New(9), collector.EmitterFunc(func(s wire.Sample) {
			samples = append(samples, s)
			truth = append(truth, sw.Port(0).Bytes(asic.TX))
		}))
		if err != nil {
			t.Fatal(err)
		}
		p.Install(sched)
		sched.RunUntil(until)
		p.Stop()
		return samples, truth
	}

	// Incarnation 1 polls to t=30ms, crashes; incarnation 2 restarts after
	// 5ms of downtime and polls to t=60ms. Traffic flows throughout.
	phase1, truth1 := pollPhase(simclock.Epoch.Add(30 * simclock.Millisecond))
	sched.RunUntil(simclock.Epoch.Add(35 * simclock.Millisecond)) // downtime
	phase2, truth2 := pollPhase(end)
	if len(phase1) < 10 || len(phase2) < 10 {
		t.Fatalf("phases too short: %d, %d", len(phase1), len(phase2))
	}

	// Epoch-gated collector service.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := collector.NewServerMetrics(obs.NewRegistry())
	sink := &collector.MemSink{}
	srv := collector.ServeConfigured(ln, sink.Handle, collector.ServerConfig{
		Metrics:   reg,
		EpochGate: true,
	})
	defer srv.Close()

	dial := func() *collector.Client {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		c, err := collector.NewClientConfigured(conn, collector.ClientConfig{Rack: 1, MaxBatch: 64})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Incarnation 1 delivers most of its stream, crashing before the tail:
	// the last crashLost samples die in the agent's buffer.
	const crashLost = 40
	agent1 := dial()
	agent1.SetEpoch(1)
	delivered1 := phase1[:len(phase1)-crashLost]
	for _, s := range delivered1 {
		agent1.Emit(s)
	}
	if err := agent1.Flush(); err != nil {
		t.Fatal(err)
	}
	// The restart happens after the crash: incarnation 1's accepted bytes
	// are fully ingested before incarnation 2 exists. Without this
	// barrier agent 1's in-flight batches could land after the epoch
	// bump and be dropped as stale — a different (valid) scenario than
	// the one this test pins.
	waitSamples(t, sink, len(delivered1))

	// Incarnation 2 comes up with a bumped epoch and streams its phase.
	agent2 := dial()
	agent2.SetEpoch(2)
	for _, s := range phase2 {
		agent2.Emit(s)
	}
	if err := agent2.Flush(); err != nil {
		t.Fatal(err)
	}
	waitSamples(t, sink, len(delivered1)+len(phase2))

	// The dead incarnation's retransmit straggles in after the restart —
	// a duplicate of its final batch that would corrupt deltas if admitted.
	straggler := dial()
	straggler.SetEpoch(1)
	for _, s := range delivered1[len(delivered1)-8:] {
		straggler.Emit(s)
	}
	if err := straggler.Flush(); err != nil {
		t.Fatal(err)
	}

	want := len(delivered1) + len(phase2)
	// Give the straggler a moment to (wrongly) land, then check it didn't.
	time.Sleep(20 * time.Millisecond)
	got := sink.Samples()
	if len(got) != want {
		t.Fatalf("delivered %d samples, want %d (straggler admitted?)", len(got), want)
	}
	if v := reg.StaleBatches.Value(); v == 0 {
		t.Error("stale straggler batch not counted as dropped")
	}
	if v := reg.EpochRestarts.Value(); v != 1 {
		t.Errorf("epoch restarts = %d, want 1", v)
	}

	// The delivered stream is the two incarnations in order; recovery over
	// it must equal the ASIC ground truth exactly, downtime gap included.
	wantBytes := truth2[len(truth2)-1] - truth1[0]
	gotBytes, err := analysis.RecoveredBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	if gotBytes != wantBytes {
		t.Fatalf("recovered %d bytes across restart, ASIC ground truth %d", gotBytes, wantBytes)
	}
	points, st, err := analysis.GapAwareUtilization(got, 10e9)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != wantBytes {
		t.Errorf("GapStats.Bytes = %d, want %d", st.Bytes, wantBytes)
	}
	for i, pt := range points {
		if pt.Util > 1+1e-6 {
			t.Errorf("span %d util %v super-physical", i, pt.Util)
		}
	}
	// The crash + downtime surfaces as exactly one wide span bridging the
	// last delivered phase-1 sample and the first phase-2 sample.
	gapStart := delivered1[len(delivered1)-1].Time
	gapEnd := phase2[0].Time
	var bridged bool
	for _, pt := range points {
		if pt.Start == gapStart && pt.End == gapEnd {
			bridged = true
		}
	}
	if !bridged {
		t.Errorf("no span bridges the crash gap [%v, %v]", gapStart, gapEnd)
	}
}
