package analysis_test

import (
	"fmt"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// ExampleUtilizationSeries shows the recovery path the paper relies on
// (Table 1 caption): because byte counters are cumulative and timestamps
// correct, a missed sampling interval still yields exact throughput over
// the longer span.
func ExampleUtilizationSeries() {
	const speed = 10_000_000_000 // 10G
	line25us := uint64(speed / 8 * 25 / 1e6)
	samples := []wire.Sample{
		{Time: simclock.Epoch, Kind: asic.KindBytes, Dir: asic.TX, Value: 0},
		{Time: simclock.Epoch.Add(simclock.Micros(25)), Kind: asic.KindBytes, Dir: asic.TX, Value: line25us},
		// One interval missed: the next sample arrives 50µs later.
		{Time: simclock.Epoch.Add(simclock.Micros(75)), Kind: asic.KindBytes, Dir: asic.TX, Value: 2 * line25us, Missed: 1},
	}
	series, _ := analysis.UtilizationSeries(samples, speed)
	for _, p := range series {
		fmt.Printf("span %v: %.0f%% utilization\n", p.Span(), p.Util*100)
	}
	// Output:
	// span 25µs: 100% utilization
	// span 50µs: 50% utilization
}

// ExampleBursts segments a utilization series into µbursts with the
// paper's >50% criterion.
func ExampleBursts() {
	mk := func(i int, util float64) analysis.UtilPoint {
		return analysis.UtilPoint{
			Start: simclock.Epoch.Add(simclock.Micros(int64(i) * 25)),
			End:   simclock.Epoch.Add(simclock.Micros(int64(i+1) * 25)),
			Util:  util,
		}
	}
	series := []analysis.UtilPoint{
		mk(0, 0.05), mk(1, 0.92), mk(2, 0.88), mk(3, 0.04), mk(4, 0.71), mk(5, 0.02),
	}
	for _, b := range analysis.Bursts(series, analysis.DefaultHotThreshold) {
		fmt.Printf("burst of %v starting at %v\n", b.Duration(), b.Start)
	}
	// Output:
	// burst of 50µs starting at 25µs
	// burst of 25µs starting at 100µs
}
