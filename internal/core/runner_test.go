package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/workload"
)

// runnerConfig is a small but multi-cell campaign: 2 racks × 2 windows.
func runnerConfig(workers int) Config {
	cfg := QuickConfig()
	cfg.Racks = 2
	cfg.Windows = 2
	cfg.WindowDur = 40 * simclock.Millisecond
	cfg.Warmup = 5 * simclock.Millisecond
	cfg.Workers = workers
	return cfg
}

// hashDir fingerprints every file in a directory by name and content.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	return out
}

// TestRunnerRecordDeterminism is the runner's core guarantee: the recorded
// trace directory is byte-identical whether cells run serially or on eight
// workers.
func TestRunnerRecordDeterminism(t *testing.T) {
	record := func(workers int) map[string]string {
		exp, err := NewExperiment(runnerConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("w%d", workers))
		err = exp.RecordCampaign(context.Background(), workload.Cache, dir, 0, "determinism",
			exp.RandomPortCounters(workload.Cache))
		if err != nil {
			t.Fatal(err)
		}
		return hashDir(t, dir)
	}
	serial := record(1)
	parallel := record(8)
	if len(serial) != len(parallel) {
		t.Fatalf("file sets differ: serial %d files, parallel %d", len(serial), len(parallel))
	}
	var names []string
	for name := range serial {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if serial[name] != parallel[name] {
			t.Errorf("%s differs between Workers=1 and Workers=8", name)
		}
	}
}

// TestRunnerFigureDeterminism asserts the whole report renders identically
// for every worker count.
func TestRunnerFigureDeterminism(t *testing.T) {
	render := func(workers int) string {
		exp, err := NewExperiment(runnerConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := exp.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Format()
	}
	if a, b := render(1), render(8); a != b {
		t.Errorf("report differs by worker count:\n--- Workers=1\n%s\n--- Workers=8\n%s", a, b)
	}
}

// TestRunnerCancelDiscardsTrace: a canceled recording must leave no partial
// campaign behind.
func TestRunnerCancelDiscardsTrace(t *testing.T) {
	exp, err := NewExperiment(runnerConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: no cell should complete
	dir := filepath.Join(t.TempDir(), "canceled")
	err = exp.RecordCampaign(ctx, workload.Web, dir, 0, "", exp.RandomPortCounters(workload.Web))
	if err == nil {
		t.Fatal("RecordCampaign succeeded under a canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		entries, _ := os.ReadDir(dir)
		t.Fatalf("partial trace left behind: %d entries in %s", len(entries), dir)
	}
}

// TestRunnerErrorNamesCell: a failing cell surfaces its coordinates.
func TestRunnerErrorNamesCell(t *testing.T) {
	exp, err := NewExperiment(runnerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cells := exp.campaignCells([]workload.App{workload.Web}, exp.RandomPortCounters(workload.Web), 0, 0)
	boom := errors.New("boom")
	_, err = RunCells(context.Background(), exp.Runner(), cells, func(run *CellRun) (int, error) {
		if run.Cell.RackID == 1 && run.Cell.Window == 1 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "web/r1/w1") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
}

// TestRunnerNilPlan: cells without a counter plan fail, not panic.
func TestRunnerNilPlan(t *testing.T) {
	exp, err := NewExperiment(runnerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCells(context.Background(), exp.Runner(), []Cell{{App: workload.Web}},
		func(run *CellRun) (int, error) { return 0, nil })
	if err == nil {
		t.Fatal("nil plan accepted")
	}
}

// TestRunnerTelemetry: the completed-cells counter tracks the grid size
// and the in-flight gauge returns to zero.
func TestRunnerTelemetry(t *testing.T) {
	cfg := runnerConfig(4)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.refRunByteCampaign(context.Background(), workload.Web, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := exp.cellsCompleted.Value(), uint64(cfg.Racks*cfg.Windows); got != want {
		t.Errorf("cells completed = %d, want %d", got, want)
	}
	if v := exp.cellsInFlight.Value(); v != 0 {
		t.Errorf("cells in flight after campaign = %v, want 0", v)
	}
}
