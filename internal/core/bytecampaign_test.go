package core

import (
	"context"
	"reflect"
	"testing"

	"mburst/internal/obs"
)

// TestRunAllSimulatesEachCellOnce counts the work behind one report: every
// figure family run on its own — the byte campaign once, for Figs 3, 4, 6,
// Table 2 and §7 together — is the set of distinct cells, and RunAll must
// complete exactly that many cells and capture exactly that many samples.
// A cell simulated twice shows up in both counts. And RunAll simulates
// each rack-window once: QuickConfig's 46 cells poll 6 simulated racks.
func TestRunAllSimulatesEachCellOnce(t *testing.T) {
	ctx := context.Background()
	counted := func() *Experiment {
		cfg := QuickConfig()
		cfg.Metrics = obs.NewRegistry()
		exp, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}

	whole := counted()
	if _, err := whole.RunAll(ctx); err != nil {
		t.Fatal(err)
	}

	parts := counted()
	for name, run := range map[string]func() error{
		"byte campaign": func() error { _, err := parts.byteCampaigns(ctx, ByteWant{Durations: true, Gaps: true}); return err },
		"fig1":          func() error { _, err := parts.Fig1DropUtilScatter(ctx); return err },
		"fig2":          func() error { _, err := parts.Fig2DropTimeSeries(ctx); return err },
		"table1":        func() error { _, err := parts.Table1SamplingLoss(ctx); return err },
		"fig5":          func() error { _, err := parts.Fig5PacketSizes(ctx); return err },
		"fig7":          func() error { _, err := parts.Fig7UplinkMAD(ctx); return err },
		"fig8":          func() error { _, err := parts.Fig8ServerCorrelation(ctx); return err },
		"fig9":          func() error { _, err := parts.Fig9HotPortShare(ctx); return err },
		"fig10":         func() error { _, err := parts.Fig10BufferOccupancy(ctx); return err },
	} {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	if got := whole.cellsCompleted.Value(); got != 46 || got != parts.cellsCompleted.Value() {
		t.Errorf("RunAll completed %d cells, want 46 (the distinct cells: %d)", got, parts.cellsCompleted.Value())
	}
	if got, want := whole.samples.Value(), parts.samples.Value(); got != want {
		t.Errorf("RunAll captured %d samples, the distinct cells hold %d", got, want)
	}
	if got := whole.windows.Value(); got != 6 {
		t.Errorf("RunAll simulated %d rack-windows, want 6 (3 apps × 1 rack × 2 windows)", got)
	}
}

// TestByteFiguresStandaloneMatchReport: §7 and each single-statistic
// runner, run alone, equal what RunAll reduces from its one shared
// campaign, serially and on a pool.
func TestByteFiguresStandaloneMatchReport(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		cfg := pinnedConfig()
		cfg.Workers = workers
		exp, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := exp.RunAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		impl, err := exp.Implications(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(impl, rep.Implications) {
			t.Errorf("workers=%d: Implications alone diverges from RunAll's\nalone:  %+v\nreport: %+v", workers, impl, rep.Implications)
		}
		if len(impl.ThresholdEval.LatenciesMicros) == 0 {
			t.Errorf("workers=%d: no burst detected on the web campaign — the detector comparison is vacuous", workers)
		}
		fig3, err := exp.Fig3BurstDurations(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig3", rep.Fig3, fig3)
		fig4, err := exp.Fig4InterBurstGaps(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig4", rep.Fig4, fig4)
		table2, err := exp.Table2BurstMarkov(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "table2", rep.Table2, table2)
		fig6, err := exp.Fig6UtilizationCDF(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assertStreamEqual(t, "fig6", rep.Fig6, fig6)
	}
}
