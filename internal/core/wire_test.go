package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"mburst/internal/collector"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// recordFullCounterWindows records the reference bytes-on-wire workload:
// the Web application polled for the paper's full counter set — every
// port's byte counter and packet-size histogram plus the shared buffer
// peak — at the 25 µs campaign interval. This is the steady agent
// traffic of a full-fidelity collection deployment (Figs 1-10 combined),
// which the wire formats are compared on.
func recordFullCounterWindows(t *testing.T) [][]wire.Sample {
	t.Helper()
	cfg := QuickConfig()
	cfg.Servers = 8
	cfg.Windows = 2
	cfg.WindowDur = 100 * simclock.Millisecond
	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = exp.RecordCampaign(context.Background(), workload.Web, dir,
		ByteCampaignInterval, "wire format comparison", FullCounters())
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	windows := make([][]wire.Sample, r.Meta().Windows)
	for i := range windows {
		if windows[i], err = readWindow(r, i); err != nil {
			t.Fatal(err)
		}
		if len(windows[i]) == 0 {
			t.Fatalf("window %d empty — the comparison is vacuous", i)
		}
	}
	return windows
}

// TestMBW3FourTimesSmallerThanRows streams the reference workload through
// one client-style connection — DefaultBatchSize samples per batch, one
// encoder for the whole stream, exactly like collector.Client — and holds
// MBW3 to at least 4x fewer bytes than the MBW2 row framing it replaced.
// The row size is the nominal wire.EncodedSize, since nothing writes that
// framing any more; its sum depends only on the samples, so on amd64 (see
// wantPinned) it is pinned too.
func TestMBW3FourTimesSmallerThanRows(t *testing.T) {
	var stream bytes.Buffer
	w := wire.NewWriter(&stream)
	var rows int
	for _, samples := range recordFullCounterWindows(t) {
		for off := 0; off < len(samples); off += collector.DefaultBatchSize {
			b := &wire.Batch{Rack: 1, Epoch: 1, Samples: samples[off:min(off+collector.DefaultBatchSize, len(samples))]}
			rows += wire.EncodedSize(b)
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	ratio := float64(rows) / float64(stream.Len())
	t.Logf("bytes on wire: mbw2 rows %d B, mbw3 %d B (%.2fx)", rows, stream.Len(), ratio)
	if ratio < 4 {
		t.Errorf("mbw3 only %.2fx below mbw2 rows on the wire, want >= 4x (rows %d B, mbw3 %d B)",
			ratio, rows, stream.Len())
	}
	if runtime.GOARCH == pinnedArch && rows != 457_004 {
		t.Errorf("the reference workload weighs %d B as mbw2 rows, want 457,004: the recording changed", rows)
	}
}
