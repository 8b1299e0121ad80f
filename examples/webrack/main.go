// Webrack reproduces the paper's headline Web-rack findings (Figs 3, 4 and
// Table 2) on a single scaled campaign: µbursts are overwhelmingly shorter
// than 200 µs, their arrivals are clustered (high Markov likelihood
// ratio), and inter-burst gaps are wildly non-exponential.
package main

import (
	"context"
	"fmt"
	"log"

	"mburst/internal/analysis"
	"mburst/internal/core"
	"mburst/internal/stats"
	"mburst/internal/workload"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Racks = 2
	cfg.Windows = 4
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		log.Fatal(err)
	}

	st, err := exp.StreamByteStats(context.Background(), workload.Web, 0,
		core.ByteWant{Durations: true, Gaps: true, Markov: true})
	if err != nil {
		log.Fatal(err)
	}

	durations := stats.NewECDF(st.Durations)
	gapCDF := stats.NewECDF(st.Gaps)
	ks := analysis.PoissonTest(st.Gaps)
	markov := st.Markov

	fmt.Println("Web rack µburst characterization (25µs sampling)")
	fmt.Printf("  %d windows, %d bursts observed\n", len(st.Ports), durations.N())
	fmt.Printf("  burst duration p50/p90/p99: %.0f / %.0f / %.0f µs (paper p90: 50µs)\n",
		durations.Quantile(0.5), durations.Quantile(0.9), durations.Quantile(0.99))
	fmt.Printf("  bursts ending within one sampling period: %.0f%% (paper: >60%%)\n",
		durations.At(25)*100)
	fmt.Printf("  inter-burst gaps p50/p99: %.0f / %.0f µs; gaps <100µs: %.0f%%\n",
		gapCDF.Quantile(0.5), gapCDF.Quantile(0.99), gapCDF.At(100)*100)
	fmt.Printf("  Poisson arrivals rejected: %v (KS D=%.3f, p=%.2g)\n",
		ks.Rejects(0.001), ks.D, ks.PValue)
	fmt.Printf("  Markov likelihood ratio r = p(1|1)/p(1|0) = %.1f (paper: 119.7)\n",
		markov.LikelihoodRatio())
	fmt.Printf("  stationary hot fraction: %.2f%%\n", markov.StationaryHotFraction()*100)
}
