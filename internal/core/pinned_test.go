package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mburst/internal/simclock"
	"mburst/internal/workload"
)

// pinnedConfig is QuickConfig cut down until RunAll plus one recording
// finish in about a second.
func pinnedConfig() Config {
	cfg := QuickConfig()
	cfg.WindowDur = 20 * simclock.Millisecond
	cfg.Warmup = 5 * simclock.Millisecond
	return cfg
}

// wantPinned reads a committed digest. The files under testdata/ were
// computed at the commit before the fluid data path got charge plans, so
// they pin simulated output across commits, not only across worker counts:
// a change that moves one bit of any counter, queue or drop moves them.
func wantPinned(t *testing.T, name string) string {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned digests were recorded on amd64; on %s Go may fuse a multiply and an add into one rounding, which legitimately moves the last bit", runtime.GOARCH)
	}
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(data))
}

// TestPinnedReport compares the text of every table and figure with the
// parent commit's.
func TestPinnedReport(t *testing.T) {
	want := wantPinned(t, "report_parent.sha256")
	exp, err := NewExperiment(pinnedConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rep.Format()))); got != want {
		t.Errorf("report sha256 = %s, the parent commit's is %s: the simulation no longer reproduces its output", got, want)
	}
}

// TestPinnedRecording compares a recorded trace directory — every port's
// bytes and size bins plus the buffer peak, so packets, bins and the peak
// register are on the wire — with the parent commit's.
func TestPinnedRecording(t *testing.T) {
	want := wantPinned(t, "record_parent.sha256")
	exp, err := NewExperiment(pinnedConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "trace")
	err = exp.RecordCampaign(context.Background(), workload.Hadoop, dir, 200*simclock.Microsecond, "pinned", FullCounters())
	if err != nil {
		t.Fatal(err)
	}
	files := hashDir(t, dir)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	sum := sha256.New()
	for _, name := range names {
		fmt.Fprintf(sum, "%s %s\n", name, files[name])
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != want {
		t.Errorf("trace directory sha256 = %s, the parent commit's is %s: the simulation no longer reproduces its output", got, want)
	}
}
