package core

import (
	"context"
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
	_, byteJobs := parts.byteCampaignJobs(ByteWant{Durations: true, Gaps: true})
	for name, run := range map[string]func() error{
		"byte campaign": func() error { return parts.Runner().runJobs(ctx, byteJobs...) },
		"fig1":          func() error { _, err := runJob(ctx, parts, parts.fig1Job); return err },
		"fig2":          func() error { _, err := runJob(ctx, parts, parts.fig2Job); return err },
		"table1":        func() error { _, err := runJob(ctx, parts, parts.table1Job); return err },
		"fig5":          func() error { _, err := runJob(ctx, parts, parts.fig5Job); return err },
		"fig7":          func() error { _, err := runJob(ctx, parts, parts.fig7Job); return err },
		"fig8":          func() error { _, err := runJob(ctx, parts, parts.fig8Job); return err },
		"fig9":          func() error { _, err := runJob(ctx, parts, parts.fig9Job); return err },
		"fig10":         func() error { _, err := runJob(ctx, parts, parts.fig10Job); return err },
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
