package analysis

import (
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// signalCoverage returns the fraction of bursts during which a cumulative
// congestion-signal counter (ECN marks, drops) advanced — i.e. the bursts
// a signal-driven control loop could even in principle learn about. §7's
// point is two-fold: many bursts end before the signal reaches the sender
// (see detect.FractionOverBeforeSignal), and mild bursts may produce no
// signal at all; this measures the latter.
//
// signal must be time-ordered samples of one cumulative counter.
func signalCoverage(bursts []Burst, signal []wire.Sample) float64 {
	if len(bursts) == 0 || len(signal) < 2 {
		return 0
	}
	covered := 0
	for _, b := range bursts {
		// Counter value at the last sample at or before the burst start
		// (fall back to the first sample), and at the first sample at or
		// after the burst end (fall back to the last).
		before := signal[0].Value
		for _, s := range signal {
			if s.Time.After(b.Start) {
				break
			}
			before = s.Value
		}
		after := signal[len(signal)-1].Value
		for _, s := range signal {
			if !s.Time.Before(b.End) {
				after = s.Value
				break
			}
		}
		if after > before {
			covered++
		}
	}
	return float64(covered) / float64(len(bursts))
}

func TestSignalCoverage(t *testing.T) {
	us := func(n int64) simclock.Time { return simclock.Epoch.Add(simclock.Micros(n)) }
	bursts := []Burst{
		{Start: us(100), End: us(150)}, // signal advances inside → covered
		{Start: us(300), End: us(350)}, // no signal change → not covered
	}
	signal := []wire.Sample{
		{Time: us(0), Value: 10},
		{Time: us(120), Value: 15}, // advance during burst 1
		{Time: us(200), Value: 15},
		{Time: us(400), Value: 15},
	}
	if got := signalCoverage(bursts, signal); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	if got := signalCoverage(nil, signal); got != 0 {
		t.Errorf("empty bursts coverage = %v", got)
	}
	if got := signalCoverage(bursts, signal[:1]); got != 0 {
		t.Errorf("single-sample coverage = %v", got)
	}
}

func TestSignalCoverageWithECNSimulation(t *testing.T) {
	// End-to-end: a hadoop rack with DCTCP-style marking enabled. Strong
	// bursts must produce marks (coverage > 0) while coverage stays below
	// 1 (weak bursts never push the queue past the threshold) — the §7
	// "signal exists at all" gap.
	net, err := simnet.New(simnet.Config{
		Rack:              topo.Default(16),
		Params:            workload.DefaultParams(workload.Hadoop),
		Seed:              71,
		ECNThresholdBytes: 60 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	const port = 0
	interval := 25 * simclock.Microsecond
	net.Run(simclock.Millis(20))
	var bytesSamples, markSamples []wire.Sample
	for i := 0; i < 12000; i++ {
		net.Run(interval)
		now := net.Now()
		bytesSamples = append(bytesSamples, wire.Sample{
			Time: now, Kind: asic.KindBytes, Dir: asic.TX, Port: port,
			Value: net.Switch().Port(port).Bytes(asic.TX),
		})
		markSamples = append(markSamples, wire.Sample{
			Time: now, Kind: asic.KindECNMarks, Port: port,
			Value: net.Switch().Port(port).ECNMarks(),
		})
	}
	series, err := UtilizationSeries(bytesSamples, net.Switch().Port(port).Speed())
	if err != nil {
		t.Fatal(err)
	}
	bursts := Bursts(series, 0)
	if len(bursts) < 10 {
		t.Fatalf("only %d bursts; need more for a stable coverage estimate", len(bursts))
	}
	cov := signalCoverage(bursts, markSamples)
	if cov <= 0 {
		t.Error("no burst ever produced an ECN mark")
	}
	if cov >= 0.999 {
		t.Errorf("coverage = %v; expected some unmarked (mild) bursts", cov)
	}
}
