// Command mbanalyze computes the paper's analyses from a trace directory
// recorded by mbsim (or any tool writing the trace format).
//
// Usage:
//
//	mbanalyze -trace DIR -analysis bursts|gaps|util|markov|hotshare [-cdf]
//
// Analyses:
//
//	bursts    µburst duration distribution (Fig 3)
//	gaps      inter-burst gap distribution + Poisson KS test (Fig 4, §5.2)
//	util      utilization distribution (Fig 6)
//	markov    two-state burst Markov model (Table 2)
//	hotshare  uplink/downlink split of hot samples (Fig 9; needs an
//	          allports/buffer trace)
//
// With -cdf, the full CDF step points are printed as "value cumfrac"
// rows ready for plotting; otherwise a summary line is printed.
//
// Windows are consumed batch-by-batch (trace.Reader.IterWindow) through
// the streaming accumulators, never materialized, so memory is bounded by
// the number of active series rather than the trace size.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mburst/internal/analysis"
	"mburst/internal/core"
	"mburst/internal/plot"
	"mburst/internal/stats"
	"mburst/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command — flag parsing included — returning the exit
// code. Split from main so the golden test drives the exact production
// path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("trace", "", "trace directory (required)")
	what := fs.String("analysis", "bursts", "bursts, gaps, util, markov, hotshare")
	cdf := fs.Bool("cdf", false, "print full CDF points instead of a summary")
	plotOut := fs.Bool("plot", false, "render an ASCII CDF plot (bursts/gaps/util)")
	threshold := fs.Float64("threshold", analysis.DefaultHotThreshold, "hot threshold")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *dir == "" {
		fmt.Fprintln(stderr, "mbanalyze: -trace is required")
		return 2
	}
	known := false
	for _, k := range core.AnalyzeKinds {
		known = known || k == *what
	}
	if !known {
		fmt.Fprintf(stderr, "mbanalyze: unknown analysis %q\n", *what)
		return 2
	}
	r, err := trace.Open(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "mbanalyze: %v\n", err)
		return 1
	}
	res, err := core.AnalyzeTrace(r, *what, *threshold)
	if err != nil {
		fmt.Fprintf(stderr, "mbanalyze: %v\n", err)
		return 1
	}
	if res.Windows == 0 {
		fmt.Fprintln(stderr, "mbanalyze: trace has no readable windows")
		return 1
	}

	printECDF := func(name string, values []float64, unit string) {
		e := stats.NewECDF(values)
		if *cdf {
			for _, p := range e.Points() {
				fmt.Fprintln(stdout, p)
			}
			return
		}
		fmt.Fprintf(stdout, "%s (%s): n=%d p50=%.3g p90=%.3g p99=%.3g max=%.3g\n",
			name, unit, e.N(), e.Quantile(0.5), e.Quantile(0.9), e.Quantile(0.99), e.Max())
		if *plotOut {
			fmt.Fprint(stdout, plot.CDF(plot.CDFConfig{LogX: e.Min() > 0 && e.Max() > 100*e.Min(), XLabel: unit},
				plot.Series{Name: name, ECDF: e}))
		}
	}

	switch *what {
	case "bursts":
		printECDF("burst durations", res.Durations, "µs")
	case "gaps":
		printECDF("inter-burst gaps", res.Gaps, "µs")
		if !*cdf {
			ks := analysis.PoissonTest(res.Gaps)
			fmt.Fprintf(stdout, "KS vs exponential: D=%.4f p=%.3g poisson-rejected(0.001)=%v\n", ks.D, ks.PValue, ks.Rejects(0.001))
		}
	case "util":
		printECDF("utilization", res.Utils, "fraction of line rate")
	case "markov":
		fmt.Fprintf(stdout, "markov: %v\n", res.Markov)
	case "hotshare":
		fmt.Fprintf(stdout, "hot samples: uplink=%d downlink=%d uplink share=%.1f%%\n",
			res.Share.UplinkHot, res.Share.DownlinkHot, res.Share.UplinkShare()*100)
	}
	return 0
}
