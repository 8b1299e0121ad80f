package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatalf("quick config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Racks = 0 },
		func(c *Config) { c.Windows = -1 },
		func(c *Config) { c.WindowDur = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Servers = 0 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d validated", i)
		}
		if _, err := NewExperiment(cfg); err == nil {
			t.Errorf("mutation %d constructed", i)
		}
	}
}

func TestLoadScaleDiurnal(t *testing.T) {
	cfg := DefaultConfig()
	e, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for w := 0; w < cfg.Windows; w++ {
		s := e.loadScale(w)
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if lo >= 1 || hi <= 1 {
		t.Errorf("diurnal range [%v, %v] should straddle 1", lo, hi)
	}
}

func TestWindowSeedsDiffer(t *testing.T) {
	e, _ := NewExperiment(QuickConfig())
	seen := map[uint64]bool{}
	for _, app := range workload.Apps {
		for r := 0; r < 2; r++ {
			for w := 0; w < 2; w++ {
				s := e.windowSeed(app, r, w)
				if seen[s] {
					t.Fatalf("duplicate seed for %v/%d/%d", app, r, w)
				}
				seen[s] = true
			}
		}
	}
	// Same coordinates → same seed.
	if e.windowSeed(workload.Web, 0, 0) != e.windowSeed(workload.Web, 0, 0) {
		t.Error("seed not deterministic")
	}
}

// quickExperiment caches the expensive QuickConfig campaigns across tests.
var (
	quickOnce sync.Once
	quickExp  *Experiment
	quickRep  *Report
	quickErr  error
)

func quickReport(t *testing.T) (*Experiment, *Report) {
	t.Helper()
	quickOnce.Do(func() {
		quickExp, quickErr = NewExperiment(QuickConfig())
		if quickErr != nil {
			return
		}
		quickRep, quickErr = quickExp.RunAll(context.Background())
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickExp, quickRep
}

func TestRunAllProducesAllSections(t *testing.T) {
	_, rep := quickReport(t)
	out := rep.Format()
	for _, want := range []string{"Fig 1", "Fig 2", "Table 1", "Fig 3", "Table 2", "Fig 4", "Fig 5", "Fig 6", "Fig 7", "Fig 8", "Fig 9", "Fig 10"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFormatPlotsRendersEveryFigure(t *testing.T) {
	_, rep := quickReport(t)
	out := rep.FormatPlots()
	for _, want := range []string{
		"Fig 2 —", "Fig 3 —", "Fig 4 —", "Fig 5 —", "Fig 6 —",
		"Fig 7 —", "Fig 8 —", "Fig 9 —", "Fig 10 —",
		"log scale", "web", "cache", "hadoop",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plots missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("NaN leaked into plot output")
	}
}

func TestFig3Shapes(t *testing.T) {
	_, rep := quickReport(t)
	for _, app := range workload.Apps {
		e := rep.Fig3.Durations[app]
		if e == nil || e.N() == 0 {
			t.Fatalf("%v: no bursts", app)
		}
		// Headline: p90 well under a millisecond for every app.
		if p90 := e.Quantile(0.9); p90 > 1000 {
			t.Errorf("%v p90 burst = %vµs, want < 1000", app, p90)
		}
	}
	// Web bursts are the shortest (paper: web p90 = 50µs = 2 periods).
	// The quick config sees only a few dozen web bursts, so compare
	// medians exactly and p90 with slack for sampling noise; the
	// full-size ordering is checked by the figure harness.
	web, hadoop := rep.Fig3.Durations[workload.Web], rep.Fig3.Durations[workload.Hadoop]
	if web.Quantile(0.5) > hadoop.Quantile(0.5) {
		t.Error("web median burst should be <= hadoop median")
	}
	if web.Quantile(0.9) > 1.5*hadoop.Quantile(0.9) {
		t.Errorf("web p90 (%v) far above hadoop p90 (%v)", web.Quantile(0.9), hadoop.Quantile(0.9))
	}
}

func TestTable2Shapes(t *testing.T) {
	_, rep := quickReport(t)
	for _, app := range workload.Apps {
		m := rep.Table2.Models[app]
		r := m.LikelihoodRatio()
		if !(r > 5) {
			t.Errorf("%v likelihood ratio = %v, want >> 1 (correlated bursts)", app, r)
		}
	}
	// Ordering: web has the highest ratio (rare but sticky bursts).
	rweb := rep.Table2.Models[workload.Web].LikelihoodRatio()
	rhad := rep.Table2.Models[workload.Hadoop].LikelihoodRatio()
	if !(rweb > rhad) {
		t.Errorf("ratio ordering: web %v should exceed hadoop %v", rweb, rhad)
	}
}

func TestFig4Shapes(t *testing.T) {
	_, rep := quickReport(t)
	for _, app := range workload.Apps {
		g := rep.Fig4.Gaps[app]
		if g == nil || g.N() < 10 {
			t.Fatalf("%v: too few gaps (%d)", app, g.N())
		}
		// The tail and KS assertions need statistical power; the quick
		// config's cache windows may sample only quiet downlinks. The
		// full-size assertions live in the figure harness/EXPERIMENTS.md.
		if g.N() < 500 {
			continue
		}
		// Gaps stretch orders of magnitude beyond burst durations.
		if g.Max() < 10*g.Quantile(0.5) {
			t.Errorf("%v gap tail too short: max %v vs median %v", app, g.Max(), g.Quantile(0.5))
		}
		if !rep.Fig4.KS[app].Rejects(0.01) {
			t.Errorf("%v: Poisson hypothesis not rejected (p=%v)", app, rep.Fig4.KS[app].PValue)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	_, rep := quickReport(t)
	for _, app := range workload.Apps {
		mix := rep.Fig5.Mix[app]
		if mix.InsidePeriods == 0 || mix.OutsidePeriods == 0 {
			t.Fatalf("%v: periods inside=%d outside=%d", app, mix.InsidePeriods, mix.OutsidePeriods)
		}
		if shift := mix.LargeShift(); shift <= 0 {
			t.Errorf("%v: large-packet shift = %v, want positive (§5.3)", app, shift)
		}
	}
	// Hadoop is mostly large packets inside AND outside.
	had := rep.Fig5.Mix[workload.Hadoop]
	if had.Outside.Normalized()[5] < 0.5 {
		t.Errorf("hadoop outside MTU share = %v, want majority", had.Outside.Normalized()[5])
	}
	// Web's shift is the largest of the three.
	if rep.Fig5.Mix[workload.Web].LargeShift() <= rep.Fig5.Mix[workload.Hadoop].LargeShift() {
		t.Error("web large-packet shift should exceed hadoop's")
	}
}

func TestFig6Shapes(t *testing.T) {
	_, rep := quickReport(t)
	hot := rep.Fig6.HotFrac
	// Hadoop spends by far the most time hot (§5.4: ~15%). The web/cache
	// ordering needs many random-port windows to stabilize (cache heat
	// lives on its 4 uplinks), so the quick config only asserts hadoop's
	// dominance; the full ordering is validated by the figure harness.
	if !(hot[workload.Hadoop] > hot[workload.Cache] && hot[workload.Hadoop] > hot[workload.Web]) {
		t.Errorf("hot-fraction ordering wrong: %v", hot)
	}
	for _, app := range workload.Apps {
		e := rep.Fig6.Utils[app]
		// Long-tailed: median far below p99.
		if e.Quantile(0.99) < 2*e.Quantile(0.5) {
			t.Errorf("%v utilization not long-tailed: p50=%v p99=%v", app, e.Quantile(0.5), e.Quantile(0.99))
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	_, rep := quickReport(t)
	for _, app := range workload.Apps {
		c := rep.Fig7.MAD[app]
		fineMed := c.EgressFine.Quantile(0.5)
		coarseMed := c.EgressCoarse.Quantile(0.5)
		// Imbalanced at fine granularity, far more balanced when coarse.
		if fineMed < 0.10 {
			t.Errorf("%v fine egress MAD median = %v, want > 0.10", app, fineMed)
		}
		if coarseMed > fineMed {
			t.Errorf("%v coarse MAD median %v should be below fine %v", app, coarseMed, fineMed)
		}
	}
	// Hadoop (few large flows) is the least balanced.
	if rep.Fig7.MAD[workload.Hadoop].EgressFine.Quantile(0.9) < rep.Fig7.MAD[workload.Web].EgressFine.Quantile(0.9) {
		t.Error("hadoop p90 MAD should exceed web p90 MAD")
	}
}

func TestFig8Shapes(t *testing.T) {
	_, rep := quickReport(t)
	// Cache has block structure; web does not.
	if rep.Fig8.BlockScore[workload.Cache] <= 0.05 {
		t.Errorf("cache block score = %v, want clearly positive", rep.Fig8.BlockScore[workload.Cache])
	}
	if rep.Fig8.MeanOffDiag[workload.Web] >= rep.Fig8.MeanOffDiag[workload.Cache] {
		t.Errorf("web mean |r| (%v) should be below cache (%v)",
			rep.Fig8.MeanOffDiag[workload.Web], rep.Fig8.MeanOffDiag[workload.Cache])
	}
	// Matrix shape sanity.
	n := len(rep.Fig8.Corr[workload.Web])
	if n != QuickConfig().Servers {
		t.Errorf("matrix size = %d", n)
	}
}

func TestFig9Shapes(t *testing.T) {
	_, rep := quickReport(t)
	web := rep.Fig9.Share[workload.Web].UplinkShare()
	cache := rep.Fig9.Share[workload.Cache].UplinkShare()
	hadoop := rep.Fig9.Share[workload.Hadoop].UplinkShare()
	if cache < 0.5 {
		t.Errorf("cache uplink share = %v, want majority (§6.3)", cache)
	}
	if web > 0.4 {
		t.Errorf("web uplink share = %v, want server-dominated", web)
	}
	if hadoop > 0.45 {
		t.Errorf("hadoop uplink share = %v, want ~0.18", hadoop)
	}
}

func TestFig10Shapes(t *testing.T) {
	_, rep := quickReport(t)
	// Buffer pressure grows with hot ports for hadoop, and hadoop drives
	// the most ports hot.
	if rep.Fig10.MeanPeakHigh[workload.Hadoop] <= rep.Fig10.MeanPeakLow[workload.Hadoop] {
		t.Errorf("hadoop buffer peak should grow with hot ports: low=%v high=%v",
			rep.Fig10.MeanPeakLow[workload.Hadoop], rep.Fig10.MeanPeakHigh[workload.Hadoop])
	}
	if rep.Fig10.MaxHotFrac[workload.Hadoop] < rep.Fig10.MaxHotFrac[workload.Web] {
		t.Error("hadoop should drive more simultaneous hot ports than web")
	}
}

func TestFig1And2Shapes(t *testing.T) {
	_, rep := quickReport(t)
	if len(rep.Fig1.Points) == 0 {
		t.Fatal("fig1: no points")
	}
	// Weak correlation (paper: 0.098). Allow a broad band, but it must
	// not look strongly coupled.
	if math.Abs(rep.Fig1.Correlation) > 0.5 {
		t.Errorf("fig1 correlation = %v, want weak", rep.Fig1.Correlation)
	}
	// Fig 2: the drop series must be bursty when drops exist at all.
	if rep.Fig2.HighStats.Total > 0 && rep.Fig2.HighStats.ZeroBins < 0.2 {
		t.Errorf("fig2 high-util port drops not bursty: %+v", rep.Fig2.HighStats)
	}
	if rep.Fig2.LowAvg >= rep.Fig2.HighAvg {
		t.Errorf("fig2: low-util port (%v) should be below high-util port (%v)", rep.Fig2.LowAvg, rep.Fig2.HighAvg)
	}
}

func TestTable1Shape(t *testing.T) {
	_, rep := quickReport(t)
	rows := map[simclock.Duration]float64{}
	for _, row := range rep.Table1.Rows {
		rows[row.Interval] = row.MissRate
	}
	if rows[simclock.Micros(1)] < 0.8 {
		t.Errorf("1µs miss rate = %v, want ~100%%", rows[simclock.Micros(1)])
	}
	if r := rows[simclock.Micros(10)]; r < 0.03 || r > 0.25 {
		t.Errorf("10µs miss rate = %v, want ~10%%", r)
	}
	if r := rows[simclock.Micros(25)]; r > 0.05 {
		t.Errorf("25µs miss rate = %v, want ~1%%", r)
	}
}

func TestByteCampaignDeterminism(t *testing.T) {
	e, _ := NewExperiment(QuickConfig())
	a, err := e.refRunByteCampaign(context.Background(), workload.Cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.refRunByteCampaign(context.Background(), workload.Cache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.WindowSeries) != len(b.WindowSeries) {
		t.Fatal("window counts differ")
	}
	for i := range a.WindowSeries {
		if len(a.WindowSeries[i]) != len(b.WindowSeries[i]) {
			t.Fatalf("window %d lengths differ", i)
		}
		for j := range a.WindowSeries[i] {
			if a.WindowSeries[i][j] != b.WindowSeries[i][j] {
				t.Fatalf("window %d point %d differs", i, j)
			}
		}
	}
}

func TestBalancerAblationConfig(t *testing.T) {
	cfg := QuickConfig()
	cfg.Balancer = simnet.BalanceRoundRobin
	e, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().Balancer != simnet.BalanceRoundRobin {
		t.Error("balancer not carried")
	}
}
