package collector

import (
	"math"
	"strings"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/eventq"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

func testSwitch() *asic.Switch {
	return asic.New(asic.Config{
		PortSpeeds:  []uint64{10e9, 10e9, 40e9},
		BufferBytes: 1 << 20,
		Alpha:       1,
	})
}

func byteSpec(port int) CounterSpec {
	return CounterSpec{Port: port, Dir: asic.TX, Kind: asic.KindBytes}
}

func newBytePoller(t *testing.T, interval simclock.Duration, emit Emitter) (*Poller, *eventq.Scheduler) {
	t.Helper()
	sw := testSwitch()
	p, err := NewPoller(PollerConfig{
		Interval:      interval,
		Counters:      []CounterSpec{byteSpec(0)},
		DedicatedCore: true,
	}, sw, rng.New(1), emit)
	if err != nil {
		t.Fatal(err)
	}
	sched := eventq.NewScheduler()
	p.Install(sched)
	return p, sched
}

func TestPollerValidation(t *testing.T) {
	sw := testSwitch()
	cases := []PollerConfig{
		{Interval: 0, Counters: []CounterSpec{byteSpec(0)}},
		{Interval: simclock.Micros(25)},
		{Interval: simclock.Micros(25), Counters: []CounterSpec{{Port: 99, Kind: asic.KindBytes}}},
		{Interval: simclock.Micros(25), Counters: []CounterSpec{{Port: 0, Kind: asic.CounterKind(9)}}},
	}
	for i, cfg := range cases {
		if _, err := NewPoller(cfg, sw, rng.New(1), EmitterFunc(func(wire.Sample) {})); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := PollerConfig{Interval: simclock.Micros(25), Counters: []CounterSpec{byteSpec(0)}}
	if _, err := NewPoller(good, sw, nil, EmitterFunc(func(wire.Sample) {})); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewPoller(good, sw, rng.New(1), nil); err == nil {
		t.Error("nil emitter accepted")
	}
}

func TestPollerEmitsAtInterval(t *testing.T) {
	var got []wire.Sample
	p, sched := newBytePoller(t, simclock.Micros(25), EmitterFunc(func(s wire.Sample) { got = append(got, s) }))
	sched.RunUntil(simclock.Epoch.Add(simclock.Millis(10)))
	// 10ms / 25µs = 400 scheduled intervals; with ~1% loss we expect most.
	if len(got) < 380 || len(got) > 400 {
		t.Fatalf("samples = %d, want ~396", len(got))
	}
	// Timestamps strictly increase and sit close to interval multiples.
	for i := 1; i < len(got); i++ {
		if got[i].Time <= got[i-1].Time {
			t.Fatalf("timestamps not increasing at %d", i)
		}
	}
	if p.Samples() != uint64(len(got)) {
		t.Errorf("Samples() = %d, emitted %d", p.Samples(), len(got))
	}
}

func TestTable1MissRates(t *testing.T) {
	// The Table 1 reproduction: a single byte counter at 1/10/25 µs.
	rates := map[simclock.Duration][2]float64{
		simclock.Micros(1):  {0.80, 1.00},  // paper: 100%
		simclock.Micros(10): {0.05, 0.18},  // paper: ~10%
		simclock.Micros(25): {0.002, 0.03}, // paper: ~1%
	}
	for interval, band := range rates {
		p, sched := newBytePoller(t, interval, EmitterFunc(func(wire.Sample) {}))
		sched.RunUntil(simclock.Epoch.Add(simclock.Seconds(1)))
		got := p.MissRate()
		if got < band[0] || got > band[1] {
			t.Errorf("interval %v: miss rate %.4f outside [%v, %v]", interval, got, band[0], band[1])
		}
	}
}

func TestMissedIntervalsCarryTimestampAndValue(t *testing.T) {
	// Even after misses, the next sample must have a correct (late)
	// timestamp and the cumulative value — the property that keeps
	// throughput computable.
	sw := testSwitch()
	var got []wire.Sample
	p, err := NewPoller(PollerConfig{
		Interval:      simclock.Micros(1), // guaranteed misses
		Counters:      []CounterSpec{byteSpec(0)},
		DedicatedCore: true,
	}, sw, rng.New(3), EmitterFunc(func(s wire.Sample) { got = append(got, s) }))
	if err != nil {
		t.Fatal(err)
	}
	sched := eventq.NewScheduler()
	p.Install(sched)
	sched.RunUntil(simclock.Epoch.Add(simclock.Millis(1)))
	if p.Missed() == 0 {
		t.Fatal("expected misses at 1µs interval")
	}
	sawMiss := false
	for _, s := range got {
		if s.Missed > 0 {
			sawMiss = true
		}
	}
	if !sawMiss {
		t.Error("no sample carried a missed-interval count")
	}
}

func TestBufferPeakSlowerThanBytes(t *testing.T) {
	sw := testSwitch()
	mk := func(kind asic.CounterKind) *Poller {
		p, err := NewPoller(PollerConfig{
			Interval:      simclock.Micros(50),
			Counters:      []CounterSpec{{Port: 0, Kind: kind}},
			DedicatedCore: true,
		}, sw, rng.New(5), EmitterFunc(func(wire.Sample) {}))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if mk(asic.KindBufferPeak).BaseCost() <= mk(asic.KindBytes).BaseCost() {
		t.Error("buffer peak poll should cost more than byte poll (§4.1)")
	}
}

func TestSublinearMultiCounterCost(t *testing.T) {
	sw := testSwitch()
	specs := func(n int) []CounterSpec {
		var out []CounterSpec
		for i := 0; i < n; i++ {
			out = append(out, byteSpec(i%3))
		}
		return out
	}
	cost := func(n int) simclock.Duration {
		p, err := NewPoller(PollerConfig{Interval: simclock.Millis(1), Counters: specs(n), DedicatedCore: true},
			sw, rng.New(7), EmitterFunc(func(wire.Sample) {}))
		if err != nil {
			t.Fatal(err)
		}
		return p.BaseCost()
	}
	c1, c2, c4 := cost(1), cost(2), cost(4)
	if !(c2 < 2*c1) {
		t.Errorf("2 counters cost %v, not sublinear vs %v", c2, c1)
	}
	if !(c4 < 4*c1) {
		t.Errorf("4 counters cost %v, not sublinear vs %v", c4, c1)
	}
	if !(c4 > c2 && c2 > c1) {
		t.Errorf("cost not increasing: %v %v %v", c1, c2, c4)
	}
}

func TestSharedCoreMissesMore(t *testing.T) {
	run := func(dedicated bool) float64 {
		sw := testSwitch()
		p, err := NewPoller(PollerConfig{
			Interval:      simclock.Micros(25),
			Counters:      []CounterSpec{byteSpec(0)},
			DedicatedCore: dedicated,
		}, sw, rng.New(11), EmitterFunc(func(wire.Sample) {}))
		if err != nil {
			t.Fatal(err)
		}
		sched := eventq.NewScheduler()
		p.Install(sched)
		sched.RunUntil(simclock.Epoch.Add(simclock.Seconds(1)))
		return p.MissRate()
	}
	if shared, ded := run(false), run(true); shared <= ded {
		t.Errorf("shared-core miss rate %.4f should exceed dedicated %.4f", shared, ded)
	}
}

func TestCPUBusyFraction(t *testing.T) {
	// At a 25µs interval with ~7µs polls, the loop should be busy ~28% of
	// the time — in the ballpark the paper quotes (≤20% after backing
	// off; here we run flat out at the minimum interval).
	p, sched := newBytePoller(t, simclock.Micros(25), EmitterFunc(func(wire.Sample) {}))
	sched.RunUntil(simclock.Epoch.Add(simclock.Seconds(1)))
	busy := p.CPUBusyFrac()
	if busy < 0.2 || busy > 0.45 {
		t.Errorf("busy fraction = %.3f, want ~0.3", busy)
	}
	// Halving the rate halves the utilization (trade precision for CPU).
	p2, sched2 := newBytePoller(t, simclock.Micros(100), EmitterFunc(func(wire.Sample) {}))
	sched2.RunUntil(simclock.Epoch.Add(simclock.Seconds(1)))
	if b2 := p2.CPUBusyFrac(); b2 >= busy/2 {
		t.Errorf("100µs busy %.3f should be well under 25µs busy %.3f", b2, busy)
	}
}

func TestPollerReadsAllCounterKinds(t *testing.T) {
	sw := testSwitch()
	full := asic.TrafficProfile{0, 0, 0, 0, 0, 1}
	kinds := map[asic.CounterKind]bool{}
	var got []wire.Sample
	p, err := NewPoller(PollerConfig{
		Interval: simclock.Micros(200),
		Counters: []CounterSpec{
			{Port: 1, Dir: asic.TX, Kind: asic.KindBytes},
			{Port: 1, Dir: asic.RX, Kind: asic.KindPackets},
			{Port: 1, Dir: asic.RX, Kind: asic.KindSizeBins},
			{Port: 1, Kind: asic.KindDrops},
			{Kind: asic.KindBufferPeak},
		},
		DedicatedCore: true,
	}, sw, rng.New(13), EmitterFunc(func(s wire.Sample) { got = append(got, s); kinds[s.Kind] = true }))
	if err != nil {
		t.Fatal(err)
	}
	// The poller switched on RX packet counting; now the traffic.
	sw.OfferRx(1, 3000, full)
	sw.OfferTx(1, 3000, full)
	sw.Tick(simclock.Micros(5))
	sched := eventq.NewScheduler()
	p.Install(sched)
	sched.RunUntil(simclock.Epoch.Add(simclock.Millis(1)))
	if len(kinds) != 5 {
		t.Fatalf("saw %d kinds, want 5", len(kinds))
	}
	for _, s := range got {
		switch s.Kind {
		case asic.KindBytes:
			if s.Value != 3000 {
				t.Errorf("bytes = %d", s.Value)
			}
		case asic.KindPackets:
			if s.Value != 2 {
				t.Errorf("packets = %d", s.Value)
			}
		case asic.KindSizeBins:
			if s.Bins[5] != 2 {
				t.Errorf("bins = %v", s.Bins)
			}
		}
	}
}

// TestPollerAfterTrafficRefusesPacketCounters: a poller that reads packet
// or size-bin counters switches them on, which the switch refuses once it
// has carried traffic; a byte-only poller is still fine there.
func TestPollerAfterTrafficRefusesPacketCounters(t *testing.T) {
	for _, kind := range []asic.CounterKind{asic.KindPackets, asic.KindSizeBins} {
		sw := testSwitch()
		sw.OfferTx(0, 3000, asic.TrafficProfile{0, 0, 0, 0, 0, 1})
		sw.Tick(simclock.Micros(5))
		_, err := NewPoller(PollerConfig{
			Interval: simclock.Micros(25),
			Counters: []CounterSpec{byteSpec(0), {Port: 0, Dir: asic.TX, Kind: kind}},
		}, sw, rng.New(1), EmitterFunc(func(wire.Sample) {}))
		if err == nil || !strings.Contains(err.Error(), "CountPackets") {
			t.Errorf("%v poller after traffic: err = %v, want the CountPackets refusal", kind, err)
		}
		if _, err := NewPoller(PollerConfig{
			Interval: simclock.Micros(25),
			Counters: []CounterSpec{byteSpec(0)},
		}, sw, rng.New(1), EmitterFunc(func(wire.Sample) {})); err != nil {
			t.Errorf("byte poller after traffic: %v", err)
		}
	}
}

func TestPeakBufferClearedBetweenPolls(t *testing.T) {
	sw := testSwitch()
	full := asic.TrafficProfile{0, 0, 0, 0, 0, 1}
	var peaks []uint64
	p, err := NewPoller(PollerConfig{
		Interval:      simclock.Micros(100),
		Counters:      []CounterSpec{{Kind: asic.KindBufferPeak}},
		DedicatedCore: true,
	}, sw, rng.New(17), EmitterFunc(func(s wire.Sample) { peaks = append(peaks, s.Value) }))
	if err != nil {
		t.Fatal(err)
	}
	sched := eventq.NewScheduler()
	p.Install(sched)
	// Build a burst before the first poll, then leave the switch idle.
	sw.OfferTx(0, 100_000, full)
	sw.Tick(simclock.Micros(5))
	for i := 0; i < 40; i++ {
		sw.Tick(simclock.Micros(5)) // drain
	}
	sched.RunUntil(simclock.Epoch.Add(simclock.Millis(1)))
	if len(peaks) < 5 {
		t.Fatalf("too few polls: %d", len(peaks))
	}
	if peaks[0] == 0 {
		t.Error("first poll missed the pre-poll burst (clear-on-read should preserve it)")
	}
	for i, pk := range peaks[1:] {
		if pk != 0 {
			t.Errorf("poll %d peak = %d on an idle switch", i+1, pk)
		}
	}
}

func TestStopHaltsLoop(t *testing.T) {
	count := 0
	p, sched := newBytePoller(t, simclock.Micros(25), EmitterFunc(func(wire.Sample) { count++ }))
	sched.RunUntil(simclock.Epoch.Add(simclock.Millis(1)))
	p.Stop()
	at := count
	sched.RunUntil(simclock.Epoch.Add(simclock.Millis(2)))
	if count > at {
		t.Errorf("poller emitted %d samples after Stop", count-at)
	}
}

func TestDeterministicSampling(t *testing.T) {
	run := func() []wire.Sample {
		var got []wire.Sample
		_, sched := newBytePoller(t, simclock.Micros(25), EmitterFunc(func(s wire.Sample) { got = append(got, s) }))
		sched.RunUntil(simclock.Epoch.Add(simclock.Millis(5)))
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestMissRateMonotoneInInterval(t *testing.T) {
	// Coarser intervals must never miss more than finer ones.
	var prev float64 = math.Inf(1)
	for _, us := range []int64{1, 5, 10, 25, 50, 100} {
		p, sched := newBytePoller(t, simclock.Micros(us), EmitterFunc(func(wire.Sample) {}))
		sched.RunUntil(simclock.Epoch.Add(simclock.Seconds(1)))
		rate := p.MissRate()
		if rate > prev+0.02 {
			t.Errorf("miss rate at %dµs (%.4f) exceeds finer interval (%.4f)", us, rate, prev)
		}
		prev = rate
	}
}

func TestInstallTwicePanics(t *testing.T) {
	p, _ := newBytePoller(t, simclock.Micros(25), EmitterFunc(func(wire.Sample) {}))
	defer func() {
		if recover() == nil {
			t.Error("double install did not panic")
		}
	}()
	p.Install(eventq.NewScheduler())
}
