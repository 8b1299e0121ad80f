package collector

import (
	"testing"

	"mburst/internal/asic"
	"mburst/internal/eventq"
	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// Zero-allocation guards for the collection plane's per-update and
// per-flush paths. testing.AllocsPerRun divides the allocation count by
// the run count, rounding down: over allocRuns runs the amortized growth
// of an appended slice reads 0, while one allocation on any branch a run
// takes reads at least 1.
const allocRuns = 10_000

// TestAggregatorApplyAllocatesNothing takes apply through its three
// outcomes in every run: a newer Seq is applied, a repeated one is
// stale, and an out-of-range shard is rejected.
func TestAggregatorApplyAllocatesNothing(t *testing.T) {
	m := NewAggregatorMetrics(obs.NewRegistry())
	agg, err := NewAggregator(AggregatorConfig{Shards: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	st := FiguresState{Series: []*SeriesState{{}}}
	seq := uint64(0)
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		seq++
		agg.apply(ShardUpdate{Shard: 0, Seq: seq, Figures: st})
		agg.apply(ShardUpdate{Shard: 1, Seq: seq, Figures: st})
		agg.apply(ShardUpdate{Shard: 0, Seq: seq, Figures: st})
		agg.apply(ShardUpdate{Shard: 7, Seq: seq, Figures: st})
	}); allocs != 0 {
		t.Errorf("Aggregator.apply allocates %v times per cycle, want 0", allocs)
	}
	if m.Applied.Value() == 0 || m.Stale.Value() == 0 || m.Rejected.Value() == 0 {
		t.Errorf("applied %d, stale %d, rejected %d: want every outcome",
			m.Applied.Value(), m.Stale.Value(), m.Rejected.Value())
	}
}

// TestSpoolPushAllocatesNothing holds the spool enqueue to amortized
// growth only, with the spool full so that every push also sheds the
// oldest batch. The client is assembled without its flusher goroutine,
// so nothing else touches the spool.
func TestSpoolPushAllocatesNothing(t *testing.T) {
	cfg := ReconnectingClientConfig{SpoolLimit: 64}
	cfg.applyDefaults()
	m := NewClientMetrics(obs.NewRegistry())
	c := &ReconnectingClient{cfg: cfg, m: *m}
	samples := make([]wire.Sample, 10)
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		c.mu.Lock()
		c.spoolPushLocked(spoolBatch{epoch: 1, samples: samples})
		c.mu.Unlock()
	}); allocs != 0 {
		t.Errorf("spoolPushLocked allocates %v times per batch, want 0", allocs)
	}
	if c.dropped == 0 || c.spooled > cfg.SpoolLimit {
		t.Errorf("spool never shed: dropped %d, spooled %d (limit %d)", c.dropped, c.spooled, cfg.SpoolLimit)
	}
}

// TestPollerSteadyPollAllocatesNothing: one poll cycle of an installed
// poller — start event, cost draw, completion event, counter reads, emit,
// re-arm — allocates nothing, so the loop adds no garbage per sample.
func TestPollerSteadyPollAllocatesNothing(t *testing.T) {
	sw := testSwitch()
	p, err := NewPoller(PollerConfig{
		Interval:      simclock.Micros(25),
		Counters:      []CounterSpec{byteSpec(0), {Port: 1, Dir: asic.TX, Kind: asic.KindPackets}, {Kind: asic.KindBufferPeak}},
		DedicatedCore: true,
	}, sw, rng.New(1), EmitterFunc(func(wire.Sample) {}))
	if err != nil {
		t.Fatal(err)
	}
	sched := eventq.NewScheduler()
	p.Install(sched)
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		sched.Step() // startPoll
		sched.Step() // finishPoll
	}); allocs != 0 {
		t.Errorf("one poll cycle allocates %v times, want 0", allocs)
	}
	if p.Samples() < allocRuns {
		t.Errorf("%d samples over %d cycles: the loop did not poll every cycle", p.Samples(), allocRuns)
	}
}
