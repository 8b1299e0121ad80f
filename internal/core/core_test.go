package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

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
