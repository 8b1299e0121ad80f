package stats_test

import (
	"fmt"

	"mburst/internal/stats"
)

// ExampleECDF reproduces how the paper reads its CDFs: percentile lookups
// on an empirical sample.
func ExampleECDF() {
	durationsMicros := []float64{25, 25, 25, 50, 50, 75, 100, 150, 200, 450}
	e := stats.NewECDF(durationsMicros)
	fmt.Printf("p50 = %.0fµs\n", e.Quantile(0.5))
	fmt.Printf("p90 = %.0fµs\n", e.Quantile(0.9))
	fmt.Printf("fraction ≤ one 25µs period: %.0f%%\n", e.At(25)*100)
	// Output:
	// p50 = 50µs
	// p90 = 200µs
	// fraction ≤ one 25µs period: 30%
}

// ExampleMarkovAcc fits the paper's Table 2 model to a hot/cold sequence
// and reads off the burst-correlation likelihood ratio.
func ExampleMarkovAcc() {
	// A clustered sequence: long cold stretches, sticky hot runs.
	var acc stats.MarkovAcc
	for i := 0; i < 20; i++ {
		for _, hot := range []bool{false, false, false, false, false, false, false, false, true, true} {
			acc.Observe(hot)
		}
	}
	m := acc.Model()
	fmt.Printf("p(1|0) = %.3f\n", m.P[0][1])
	fmt.Printf("p(1|1) = %.3f\n", m.P[1][1])
	fmt.Printf("likelihood ratio r = %.1f (r ≈ 1 would mean independent bursts)\n", m.LikelihoodRatio())
	// Output:
	// p(1|0) = 0.125
	// p(1|1) = 0.513
	// likelihood ratio r = 4.1 (r ≈ 1 would mean independent bursts)
}

// ExampleKSExponential runs the §5.2 test: are inter-burst gaps consistent
// with Poisson burst arrivals?
func ExampleKSExponential() {
	// A bimodal mixture: clustered short gaps plus very long idles —
	// nothing like an exponential.
	var gaps []float64
	for i := 0; i < 300; i++ {
		gaps = append(gaps, 40+float64(i%11))  // ~40µs clustered gaps
		gaps = append(gaps, 100000+float64(i)) // ~100ms idles
	}
	res := stats.KSExponential(gaps)
	fmt.Printf("rejects Poisson at 0.1%% significance: %v\n", res.Rejects(0.001))
	// Output:
	// rejects Poisson at 0.1% significance: true
}

// ExampleNormalizedMAD computes Fig 7's imbalance metric for one sampling
// period of four uplinks.
func ExampleNormalizedMAD() {
	balanced := []float64{0.30, 0.31, 0.29, 0.30}
	skewed := []float64{0.90, 0.10, 0.05, 0.15}
	fmt.Printf("balanced: %.2f\n", stats.NormalizedMAD(balanced))
	fmt.Printf("skewed:   %.2f\n", stats.NormalizedMAD(skewed))
	// Output:
	// balanced: 0.02
	// skewed:   1.00
}
