package asic

import (
	"testing"

	"mburst/internal/simclock"
)

// TestTickAllocatesNothing is the zero-allocation guard on Switch.Tick
// and dirCounters.add, which run per port and direction every 5 µs tick
// of every campaign. Each run is twenty ticks: port 0 takes ten
// overloaded ones (its queue grows, the dynamic threshold drops and ECN
// marks) and ten light ones (the queue drains); port 1 takes a standing
// plan blended with a by-value offer; both receive, through a plan and
// by value. Every direction counts packets, so the carries run under the
// guard too. Every change of offered bytes re-derives the counter
// increments.
// (internal/simnet's TestSteadyTicksDoNotAllocate covers the same code
// under the simulator's traffic.)
func TestTickAllocatesNothing(t *testing.T) {
	sw := New(Config{
		PortSpeeds:        []uint64{gbps10, gbps10},
		BufferBytes:       64 << 10,
		Alpha:             1,
		ECNThresholdBytes: 8000,
	})
	for port := 0; port < sw.NumPorts(); port++ {
		countPackets(t, sw, port, RX)
		countPackets(t, sw, port, TX)
	}
	mix := TrafficProfile{0.1, 0.1, 0.2, 0.2, 0.2, 0.2}
	var plan Plan
	plan.Set(3000, &mix)
	tick := simclock.Micros(5)
	if allocs := testing.AllocsPerRun(1_000, func() {
		for i := 0; i < 20; i++ {
			load := 1000.0
			if i < 10 {
				load = 20_000 + float64(i%3)
			}
			sw.OfferTx(0, load, fullMTU)
			sw.OfferTxPlan(1, &plan)
			sw.OfferTx(1, 500, mix)
			sw.OfferRxPlan(0, &plan)
			sw.OfferRx(1, load/2, mix)
			sw.Tick(tick)
		}
	}); allocs != 0 {
		t.Errorf("20 ticks allocate %v times, want 0", allocs)
	}
	if p := sw.Port(0); sw.TotalDropped() == 0 || p.ecnMarks == 0 || p.Packets(TX) == 0 || p.Packets(RX) == 0 {
		t.Errorf("load never drove every branch: drops %d, ecn marks %d, tx packets %d, rx packets %d",
			sw.TotalDropped(), p.ecnMarks, p.Packets(TX), p.Packets(RX))
	}
}
