// Package mburst's root benchmark harness regenerates every table and
// figure of the paper in one pass (BenchmarkReport — see DESIGN.md §3) and
// runs the ablation benches for the design choices §7 discusses. The
// benches attach their headline measurements via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the experiment runner:
//
//	go test -run=^$ -bench=BenchmarkReport -benchtime=1x
//
// BenchmarkReport uses the quick configuration so a full -bench=. pass
// stays tractable; cmd/mbreport runs the full-scale campaign, and
// experiments_test.go holds it to EXPERIMENTS.md.
package mburst

import (
	"context"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/core"
	"mburst/internal/eventq"
	"mburst/internal/fabric"
	"mburst/internal/obs"
	"mburst/internal/pktsample"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/stats"
	"mburst/internal/sweep"
	"mburst/internal/topo"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

func quickExperiment(b *testing.B) *core.Experiment {
	b.Helper()
	exp, err := core.NewExperiment(core.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	return exp
}

// ---------------------------------------------------------------------------
// The paper's tables and figures.

// BenchmarkReport runs a QuickConfig RunAll — every table and figure in one
// pass — per iteration and attaches each artifact's headline measurement.
func BenchmarkReport(b *testing.B) {
	exp := quickExperiment(b)
	var rep *core.Report
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = exp.RunAll(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Fig1.Correlation, "corr")
	b.ReportMetric(float64(len(rep.Fig1.Points)), "points")
	b.ReportMetric(rep.Fig2.HighStats.ZeroBins, "zero-bin-frac")
	for _, row := range rep.Table1.Rows {
		if row.Interval == 25*simclock.Microsecond {
			b.ReportMetric(row.MissRate*100, "miss%@25µs")
		}
	}
	b.ReportMetric(rep.Fig3.Durations[workload.Web].Quantile(0.9), "web-p90-µs")
	b.ReportMetric(rep.Fig3.Durations[workload.Hadoop].Quantile(0.9), "hadoop-p90-µs")
	b.ReportMetric(rep.Table2.Models[workload.Web].LikelihoodRatio(), "web-ratio")
	b.ReportMetric(rep.Fig4.Gaps[workload.Web].At(100)*100, "web-gaps<100µs-%")
	b.ReportMetric(rep.Fig5.Mix[workload.Web].LargeShift()*100, "web-shift-%")
	b.ReportMetric(rep.Fig6.HotFrac[workload.Hadoop]*100, "hadoop-hot-%")
	b.ReportMetric(rep.Fig7.MAD[workload.Hadoop].EgressFine.Quantile(0.5)*100, "hadoop-mad-p50-%")
	b.ReportMetric(rep.Fig8.BlockScore[workload.Cache], "cache-block-score")
	b.ReportMetric(rep.Fig9.Share[workload.Hadoop].UplinkShare()*100, "hadoop-uplink-%")
	b.ReportMetric(rep.Fig10.MaxHotFrac[workload.Hadoop]*100, "hadoop-max-hot-%")
	for i, rtt := range rep.Implications.SignalRTTs {
		b.ReportMetric(rep.Implications.OverBeforeSignal[workload.Web][i]*100, "over-before-"+rtt.String()+"-rtt-%")
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationHotThreshold varies the burst criterion around the
// paper's 50% (§5.4 claims the choice barely matters because utilization
// is multimodal), through the same sweep mbsweep runs.
func BenchmarkAblationHotThreshold(b *testing.B) {
	for _, th := range []float64{0.3, 0.5, 0.7} {
		b.Run(fmtFloat(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sweep.HotThreshold(context.Background(), core.QuickConfig(), workload.Hadoop, []float64{th})
				if err != nil {
					b.Fatal(err)
				}
				m := res.Points[0].Metrics
				b.ReportMetric(m["p90-burst-µs"], "p90-µs")
				b.ReportMetric(m["bursts"], "bursts")
			}
		})
	}
}

// BenchmarkAblationGranularity measures the same rack at 25 µs, 100 µs and
// 1 ms sampling: coarse granularities cannot see µbursts at all (§5.1:
// "fine-grained measurements are needed to capture certain behaviors").
func BenchmarkAblationGranularity(b *testing.B) {
	for _, interval := range []simclock.Duration{
		25 * simclock.Microsecond,
		100 * simclock.Microsecond,
		simclock.Millisecond,
	} {
		b.Run(interval.String(), func(b *testing.B) {
			exp := quickExperiment(b)
			for i := 0; i < b.N; i++ {
				st, err := exp.StreamByteStats(context.Background(), workload.Hadoop, interval, core.ByteWant{Durations: true})
				if err != nil {
					b.Fatal(err)
				}
				e := stats.NewECDF(st.Durations)
				b.ReportMetric(float64(e.N()), "bursts")
				if e.N() > 0 {
					b.ReportMetric(e.Quantile(0.9), "p90-µs")
				}
			}
		})
	}
}

// BenchmarkAblationECMPFlowlet compares flow hashing, flowlet switching
// and per-pick round robin on Fig 7's imbalance metric (§7's
// load-balancing implication).
func BenchmarkAblationECMPFlowlet(b *testing.B) {
	for _, mode := range []simnet.BalancerMode{
		simnet.BalanceFlow, simnet.BalanceFlowlet, simnet.BalanceRoundRobin,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := core.QuickConfig()
			cfg.Balancer = mode
			exp, err := core.NewExperiment(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				rep, err := exp.RunAll(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Fig7.MAD[workload.Hadoop].EgressFine.Quantile(0.5)*100, "hadoop-mad-p50-%")
			}
		})
	}
}

// BenchmarkAblationPacing compares unpaced senders against senders capped
// at 95% of line rate with stretched bursts (§7's pacing implication):
// pacing trades burst intensity for duration.
func BenchmarkAblationPacing(b *testing.B) {
	for _, paced := range []bool{false, true} {
		name := "unpaced"
		if paced {
			name = "paced"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.QuickConfig()
			cfg.Paced = paced
			exp, err := core.NewExperiment(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				st, err := exp.StreamByteStats(context.Background(), workload.Hadoop, 0, core.ByteWant{Durations: true, Utils: true})
				if err != nil {
					b.Fatal(err)
				}
				e := stats.NewECDF(st.Durations)
				if e.N() > 0 {
					b.ReportMetric(e.Quantile(0.9), "p90-µs")
				}
				b.ReportMetric(float64(st.HotSamples)/float64(len(st.Utils))*100, "hot-%")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Extension benches: baselines and future-work experiments.

// BenchmarkBaselinePacketSampling runs the §2 baseline (1-in-30000 sFlow
// sampling) against a hadoop rack and reports how blind it is at 25 µs.
func BenchmarkBaselinePacketSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := simnet.New(simnet.Config{
			Rack:   topo.Default(16),
			Params: workload.DefaultParams(workload.Hadoop),
			Seed:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		sampler := pktsample.NewSampler(pktsample.DefaultRate, rng.New(2))
		net.SetTxObserver(func(now simclock.Time, p int, nbytes float64, profile asic.TrafficProfile) {
			sampler.Observe(now, p, nbytes, profile)
		})
		dur := 200 * simclock.Millisecond
		net.Run(dur)
		fine, err := pktsample.EstimateUtilization(sampler.Records(), 0,
			net.Switch().Port(0).Speed(), pktsample.DefaultRate,
			simclock.Epoch, simclock.Epoch.Add(dur), 25*simclock.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		cov := pktsample.Coverage(fine)
		b.ReportMetric(cov.EmptyFrac*100, "empty-25µs-%")
	}
}

// BenchmarkExtensionFabricTier measures the future-work tier comparison:
// ToR ports should show a higher coefficient of variation than spine
// ports, which aggregate several racks.
func BenchmarkExtensionFabricTier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cfg fabric.Config
		for r := 0; r < 4; r++ {
			app := workload.Hadoop
			if r%2 == 1 {
				app = workload.Cache
			}
			cfg.RackConfigs = append(cfg.RackConfigs, simnet.Config{
				Rack:   topo.Default(16),
				Params: workload.DefaultParams(app),
				Seed:   uint64(100 + r),
				RackID: r,
			})
		}
		c, err := fabric.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.Run(20 * simclock.Millisecond)
		cmp, err := fabric.CompareTiers(c, 150*simclock.Millisecond, 300*simclock.Microsecond, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.ToR.CoV, "tor-cov")
		b.ReportMetric(cmp.Spine.CoV, "spine-cov")
	}
}

// ---------------------------------------------------------------------------
// Hot-path microbenchmarks (allocation behaviour via -benchmem).

// BenchmarkPollerInstrumented measures the telemetry tax on the collection
// hot path. Each iteration dispatches exactly one poll event (the poller
// reschedules itself), so ns/op is the cost of a single read-emit-schedule
// cycle: "off" is the nil-registry baseline, "on" pays counter increments
// plus a histogram observation. Run with -benchmem to confirm the disabled
// path allocates nothing beyond the baseline; the acceptance bar is <5%
// slowdown when enabled.
// No metric of the repo benchmark (bench/) contrasts metrics on and off.
func BenchmarkPollerInstrumented(b *testing.B) {
	run := func(b *testing.B, m *collector.PollerMetrics) {
		sw := asic.New(asic.Config{
			PortSpeeds:  topo.Default(32).PortSpeeds(),
			BufferBytes: 1 << 20,
			Alpha:       1,
		})
		p, err := collector.NewPoller(collector.PollerConfig{
			Interval:      25 * simclock.Microsecond,
			Counters:      []collector.CounterSpec{{Port: 0, Dir: asic.TX, Kind: asic.KindBytes}},
			DedicatedCore: true,
			Metrics:       m,
		}, sw, rng.New(3), collector.EmitterFunc(func(wire.Sample) {}))
		if err != nil {
			b.Fatal(err)
		}
		sched := eventq.NewScheduler()
		p.Install(sched)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.Step()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) {
		run(b, collector.NewPollerMetrics(obs.NewRegistry()))
	})
}

// BenchmarkECDFQuantile: no metric of the repo benchmark times stats.ECDF.
func BenchmarkECDFQuantile(b *testing.B) {
	src := rng.New(1)
	sample := make([]float64, 100_000)
	for i := range sample {
		sample[i] = src.Exp(100)
	}
	e := stats.NewECDF(sample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Quantile(0.9)
	}
}

// BenchmarkMarkovFit: no metric of the repo benchmark times a
// stats.MarkovAcc fit over one whole sequence.
func BenchmarkMarkovFit(b *testing.B) {
	src := rng.New(2)
	seq := make([]bool, 100_000)
	for i := range seq {
		seq[i] = src.Bool(0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc stats.MarkovAcc
		for _, hot := range seq {
			acc.Observe(hot)
		}
		_ = acc.Model()
	}
}

func fmtFloat(f float64) string {
	switch f {
	case 0.3:
		return "threshold30"
	case 0.5:
		return "threshold50"
	case 0.7:
		return "threshold70"
	default:
		return "threshold"
	}
}
