package asic

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mburst/internal/simclock"
)

const (
	gbps10 = 10_000_000_000
	gbps40 = 40_000_000_000
)

// fullMTU is a profile carrying all bytes in the largest size bin.
var fullMTU = TrafficProfile{0, 0, 0, 0, 0, 1}

func newTestSwitch(nports int) *Switch {
	speeds := make([]uint64, nports)
	for i := range speeds {
		speeds[i] = gbps10
	}
	return New(Config{PortSpeeds: speeds, BufferBytes: 1 << 20, Alpha: 2})
}

// countPackets registers port's direction d for packet counting, failing
// the test on an error.
func countPackets(t testing.TB, sw *Switch, port int, d Direction) {
	t.Helper()
	if err := sw.CountPackets(port, d); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{PortSpeeds: []uint64{gbps10}}, // no buffer
		{PortSpeeds: []uint64{gbps10}, BufferBytes: 1},                                     // no alpha
		{PortSpeeds: []uint64{0}, BufferBytes: 1, Alpha: 1},                                // zero speed
		{PortSpeeds: []uint64{1}, BufferBytes: 1, Alpha: 1, PortNames: []string{"a", "b"}}, // name mismatch
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPortNaming(t *testing.T) {
	sw := New(Config{
		PortSpeeds:  []uint64{gbps10, gbps40},
		PortNames:   []string{"server0", "uplink0"},
		BufferBytes: 1 << 20,
		Alpha:       2,
	})
	if sw.Port(0).Name() != "server0" || sw.Port(1).Name() != "uplink0" {
		t.Error("explicit names not applied")
	}
	if sw.Port(1).Speed() != gbps40 {
		t.Error("speed not applied")
	}
	def := newTestSwitch(1)
	if def.Port(0).Name() != "port0" {
		t.Errorf("default name = %q", def.Port(0).Name())
	}
}

func TestTransmitBelowLineRate(t *testing.T) {
	sw := newTestSwitch(1)
	tick := simclock.Micros(5)
	// 10 Gbps over 5µs = 6250 bytes of line capacity.
	sw.OfferTx(0, 1000, fullMTU)
	sw.Tick(tick)
	p := sw.Port(0)
	if p.Bytes(TX) != 1000 {
		t.Errorf("TxBytes = %d, want 1000", p.Bytes(TX))
	}
	if p.QueueBytes() != 0 {
		t.Errorf("queue = %v, want 0", p.QueueBytes())
	}
	if p.Drops() != 0 {
		t.Errorf("drops = %d", p.Drops())
	}
}

func TestQueueingAboveLineRate(t *testing.T) {
	sw := newTestSwitch(1)
	tick := simclock.Micros(5)
	const line = 6250.0 // bytes per 5µs at 10G
	sw.OfferTx(0, 10000, fullMTU)
	sw.Tick(tick)
	p := sw.Port(0)
	if got := float64(p.Bytes(TX)); math.Abs(got-line) > 1 {
		t.Errorf("TxBytes = %v, want ~%v", got, line)
	}
	if math.Abs(p.QueueBytes()-(10000-line)) > 1 {
		t.Errorf("queue = %v, want %v", p.QueueBytes(), 10000-line)
	}
	if math.Abs(sw.BufferUsed()-p.QueueBytes()) > 1e-9 {
		t.Errorf("buffer used %v != queue %v", sw.BufferUsed(), p.QueueBytes())
	}
	// Idle tick drains the queue.
	sw.Tick(tick)
	if p.QueueBytes() != 0 {
		t.Errorf("queue after drain = %v", p.QueueBytes())
	}
	if sw.BufferUsed() != 0 {
		t.Errorf("buffer after drain = %v", sw.BufferUsed())
	}
	if got := float64(p.Bytes(TX)); math.Abs(got-10000) > 1 {
		t.Errorf("total TxBytes = %v, want 10000", got)
	}
}

func TestDynamicThresholdDrops(t *testing.T) {
	// Small buffer, alpha 1: limit = free. Overload one port massively.
	sw := New(Config{PortSpeeds: []uint64{gbps10}, BufferBytes: 10000, Alpha: 1})
	tick := simclock.Micros(5)
	sw.OfferTx(0, 100000, fullMTU)
	sw.Tick(tick)
	p := sw.Port(0)
	if p.Drops() == 0 {
		t.Fatal("expected drops under massive overload")
	}
	// Queue can never exceed the buffer.
	if p.QueueBytes() > 10000 {
		t.Errorf("queue %v exceeds buffer", p.QueueBytes())
	}
	// alpha=1 means limit = free; since the port starts empty,
	// admitted growth g satisfies g <= alpha*(cap - used_before) but also
	// the invariant used <= cap.
	if sw.BufferUsed() > 10000 {
		t.Errorf("buffer used %v exceeds capacity", sw.BufferUsed())
	}
}

func TestSharedBufferContention(t *testing.T) {
	// Two ports share the buffer; the second to be processed sees less
	// free space, so dynamic carving admits it less.
	sw := New(Config{PortSpeeds: []uint64{gbps10, gbps10}, BufferBytes: 20000, Alpha: 0.5})
	tick := simclock.Micros(5)
	sw.OfferTx(0, 50000, fullMTU)
	sw.OfferTx(1, 50000, fullMTU)
	sw.Tick(tick)
	q0, q1 := sw.Port(0).QueueBytes(), sw.Port(1).QueueBytes()
	if q0 <= q1 {
		t.Errorf("expected first-processed port to get more buffer: q0=%v q1=%v", q0, q1)
	}
	if sw.BufferUsed() > 20000 {
		t.Errorf("buffer overcommitted: %v", sw.BufferUsed())
	}
	if sw.TotalDropped() == 0 {
		t.Error("expected contention drops")
	}
}

func TestPeakBufferClearOnRead(t *testing.T) {
	sw := newTestSwitch(1)
	tick := simclock.Micros(5)
	sw.OfferTx(0, 20000, fullMTU)
	sw.Tick(tick)
	peak1 := sw.ReadPeakBufferAndClear()
	if peak1 <= 0 {
		t.Fatalf("peak = %v, want > 0", peak1)
	}
	// Drain fully, then read again: peak register was reset to current
	// occupancy at read time and only tracks maxima after that.
	for i := 0; i < 10; i++ {
		sw.Tick(tick)
	}
	peak2 := sw.ReadPeakBufferAndClear()
	if peak2 > peak1 {
		t.Errorf("peak after clear = %v > first peak %v", peak2, peak1)
	}
	if sw.BufferUsed() != 0 {
		t.Errorf("buffer not drained: %v", sw.BufferUsed())
	}
	if p := sw.ReadPeakBufferAndClear(); p != 0 {
		t.Errorf("peak on idle switch = %v", p)
	}
}

func TestPeakSurvivesMissedInterval(t *testing.T) {
	// The reason for clear-on-read: a burst between two reads is visible
	// in the second read even if no read happened during the burst.
	sw := newTestSwitch(1)
	tick := simclock.Micros(5)
	sw.ReadPeakBufferAndClear()
	sw.OfferTx(0, 30000, fullMTU) // burst
	sw.Tick(tick)
	for i := 0; i < 20; i++ { // long drain, burst is over
		sw.Tick(tick)
	}
	if sw.BufferUsed() != 0 {
		t.Fatal("setup: buffer should be drained")
	}
	if peak := sw.ReadPeakBufferAndClear(); peak < 20000 {
		t.Errorf("peak = %v, want to see the ~23.75kB burst", peak)
	}
}

func TestRxCounters(t *testing.T) {
	sw := newTestSwitch(2)
	countPackets(t, sw, 1, RX)
	profile := TrafficProfile{0.5, 0, 0, 0, 0, 0.5}
	sw.OfferRx(1, 9600, profile)
	p := sw.Port(1)
	if p.Bytes(RX) != 9600 {
		t.Errorf("RxBytes = %d", p.Bytes(RX))
	}
	bins := p.SizeBins(RX)
	// 4800 bytes at 48B/pkt = 100 pkts in bin 0; 4800 at 1500 = 3 pkts in bin 5.
	if bins[0] != 100 {
		t.Errorf("bin0 = %d, want 100", bins[0])
	}
	if bins[5] != 3 {
		t.Errorf("bin5 = %d, want 3", bins[5])
	}
	if p.Packets(RX) != 103 {
		t.Errorf("RxPackets = %d", p.Packets(RX))
	}
	if sw.Port(0).Bytes(RX) != 0 {
		t.Error("wrong port charged")
	}
}

func TestFractionalPacketRemainder(t *testing.T) {
	// Offering 750 bytes of MTU traffic twice should yield exactly one
	// 1500-byte packet across the two offers, not zero.
	sw := newTestSwitch(1)
	countPackets(t, sw, 0, RX)
	sw.OfferRx(0, 750, fullMTU)
	sw.OfferRx(0, 750, fullMTU)
	if got := sw.Port(0).Packets(RX); got != 1 {
		t.Errorf("packets = %d, want 1 (remainder carrying)", got)
	}
}

func TestProfileBlendingAcrossOffers(t *testing.T) {
	sw := newTestSwitch(1)
	countPackets(t, sw, 0, TX)
	tick := simclock.Micros(5)
	small := TrafficProfile{1, 0, 0, 0, 0, 0}
	sw.OfferTx(0, 2400, small)
	sw.OfferTx(0, 2400, fullMTU)
	sw.Tick(tick)
	bins := sw.Port(0).SizeBins(TX)
	if bins[0] != 50 { // 2400/48
		t.Errorf("bin0 = %d, want 50", bins[0])
	}
	// 2400/1500 = 1.6 -> 1 whole packet with remainder carried.
	if bins[5] != 1 {
		t.Errorf("bin5 = %d, want 1", bins[5])
	}
}

func TestUtilizationFromByteDeltas(t *testing.T) {
	// Offer exactly half line rate for 100 ticks; utilization computed
	// from cumulative byte deltas must be 0.5.
	sw := newTestSwitch(1)
	tick := simclock.Micros(5)
	const halfLine = 3125.0
	before := sw.Port(0).Bytes(TX)
	for i := 0; i < 100; i++ {
		sw.OfferTx(0, halfLine, fullMTU)
		sw.Tick(tick)
	}
	delta := float64(sw.Port(0).Bytes(TX) - before)
	util := delta * 8 / (float64(gbps10) * (100 * tick.Seconds()))
	if math.Abs(util-0.5) > 0.01 {
		t.Errorf("utilization = %v, want 0.5", util)
	}
}

func TestAccessCosts(t *testing.T) {
	if AccessCost(KindBytes) >= AccessCost(KindBufferPeak) {
		t.Error("buffer peak must be slower than byte counter (§4.1)")
	}
	for k := CounterKind(0); k < numCounterKinds; k++ {
		if AccessCost(k) <= 0 {
			t.Errorf("cost of %v not positive", k)
		}
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AccessCost of invalid kind did not panic")
		}
	}()
	AccessCost(CounterKind(99))
}

func TestTrafficProfileHelpers(t *testing.T) {
	if !fullMTU.Valid() {
		t.Error("fullMTU invalid")
	}
	if (TrafficProfile{}).Valid() {
		t.Error("zero profile should be invalid")
	}
	if (TrafficProfile{-0.5, 1.5, 0, 0, 0, 0}).Valid() {
		t.Error("negative fraction should be invalid")
	}
	if m := fullMTU.MeanPacketSize(); m != 1500 {
		t.Errorf("MTU mean = %v", m)
	}
	mixed := TrafficProfile{0.5, 0, 0, 0, 0, 0.5}
	m := mixed.MeanPacketSize()
	if m <= 48 || m >= 1500 {
		t.Errorf("mixed mean = %v, want between 48 and 1500", m)
	}
	if (TrafficProfile{}).MeanPacketSize() != 0 {
		t.Error("zero profile mean should be 0")
	}
}

func TestSizeBinLabels(t *testing.T) {
	if SizeBinLabel(0) != "0-63" {
		t.Errorf("label 0 = %q", SizeBinLabel(0))
	}
	if SizeBinLabel(5) != "1024-1518" {
		t.Errorf("label 5 = %q", SizeBinLabel(5))
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range label did not panic")
		}
	}()
	SizeBinLabel(6)
}

func TestNegativeOffersPanic(t *testing.T) {
	sw := newTestSwitch(1)
	for _, f := range []func(){
		func() { sw.OfferTx(0, -1, fullMTU) },
		func() { sw.OfferRx(0, -1, fullMTU) },
		func() { sw.Tick(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid call did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: byte conservation — transmitted + queued + dropped-bytes-equivalent
// accounts for everything offered, and buffer occupancy equals the sum of
// queues and never exceeds capacity.
func TestQuickConservation(t *testing.T) {
	tick := simclock.Micros(5)
	f := func(offers []uint32) bool {
		sw := New(Config{
			PortSpeeds:  []uint64{gbps10, gbps10, gbps40},
			BufferBytes: 50000,
			Alpha:       1,
		})
		var offered float64
		for i, o := range offers {
			amt := float64(o % 20000)
			sw.OfferTx(i%3, amt, fullMTU)
			offered += amt
			if i%2 == 1 {
				sw.Tick(tick)
				var queues float64
				for pi := 0; pi < 3; pi++ {
					queues += sw.Port(pi).QueueBytes()
				}
				if math.Abs(queues-sw.BufferUsed()) > 1 {
					return false
				}
				if sw.BufferUsed() > 50000+1 {
					return false
				}
			}
		}
		// Flush any pending offers, then drain everything.
		sw.Tick(tick)
		for i := 0; i < 1000 && sw.BufferUsed() > 0; i++ {
			sw.Tick(tick)
		}
		var transmitted float64
		for pi := 0; pi < 3; pi++ {
			transmitted += float64(sw.Port(pi).Bytes(TX))
		}
		droppedBytes := float64(sw.TotalDropped()) * 1500
		// Allow slack: drop packetization rounds to 1500-byte quanta and
		// byte counters round to integers.
		return math.Abs(offered-(transmitted+droppedBytes)) <= 1500*float64(len(offers)+2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCountPacketsOnlyBeforeTraffic: registration is refused once any
// Offer or Tick has run, so a counted direction has counted from the
// start; before that it is idempotent and checks the port.
func TestCountPacketsOnlyBeforeTraffic(t *testing.T) {
	var plan Plan
	plan.Set(1500, &fullMTU)
	for name, carry := range map[string]func(*Switch){
		"OfferTx":     func(sw *Switch) { sw.OfferTx(0, 1500, fullMTU) },
		"OfferTx 0":   func(sw *Switch) { sw.OfferTx(0, 0, fullMTU) },
		"OfferTxPlan": func(sw *Switch) { sw.OfferTxPlan(0, &plan) },
		"OfferRx":     func(sw *Switch) { sw.OfferRx(0, 1500, fullMTU) },
		"OfferRxPlan": func(sw *Switch) { sw.OfferRxPlan(0, &plan) },
		"Tick":        func(sw *Switch) { sw.Tick(simclock.Micros(5)) },
	} {
		sw := newTestSwitch(2)
		countPackets(t, sw, 1, TX)
		carry(sw)
		if err := sw.CountPackets(1, RX); err == nil || !strings.Contains(err.Error(), "carried traffic") {
			t.Errorf("%s: CountPackets after traffic = %v, want a carried-traffic error", name, err)
		}
		if err := sw.CountPackets(1, TX); err != nil {
			t.Errorf("%s: re-registering a counted direction = %v, want nil", name, err)
		}
	}
	sw := newTestSwitch(2)
	for _, port := range []int{-1, 2} {
		if err := sw.CountPackets(port, TX); err == nil {
			t.Errorf("CountPackets(%d) on a 2-port switch succeeded", port)
		}
	}
}

// TestUncountedReadsPanic: a packet or size-bin read of a direction
// nobody registered panics naming CountPackets rather than reading zero;
// the other direction of the same port counts as usual.
func TestUncountedReadsPanic(t *testing.T) {
	sw := newTestSwitch(1)
	countPackets(t, sw, 0, TX)
	sw.OfferRx(0, 3000, fullMTU)
	sw.OfferTx(0, 3000, fullMTU)
	sw.Tick(simclock.Micros(5))
	p := sw.Port(0)
	if p.Packets(TX) != 2 || p.SizeBins(TX)[5] != 2 || p.Bytes(RX) != 3000 {
		t.Errorf("tx packets %d, tx bins %v, rx bytes %d", p.Packets(TX), p.SizeBins(TX), p.Bytes(RX))
	}
	for name, read := range map[string]func(){
		"Packets":  func() { p.Packets(RX) },
		"SizeBins": func() { p.SizeBins(RX) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "CountPackets") {
					t.Errorf("%s(RX) of an uncounted direction: panic %q, want one naming CountPackets", name, msg)
				}
			}()
			read()
		}()
	}
}
