package core

import (
	"bytes"
	"context"
	"encoding/binary"
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

// streamReference streams the reference workload through one
// client-style connection — DefaultBatchSize samples per batch, one
// encoder for the whole stream, exactly like collector.Client — and
// returns the MBW3 stream and its size as the nominal MBW2 row framing.
func streamReference(t *testing.T) (mbw3 []byte, rows int) {
	t.Helper()
	var stream bytes.Buffer
	w := wire.NewWriter(&stream)
	for _, samples := range recordFullCounterWindows(t) {
		for off := 0; off < len(samples); off += collector.DefaultBatchSize {
			b := &wire.Batch{Rack: 1, Epoch: 1, Samples: samples[off:min(off+collector.DefaultBatchSize, len(samples))]}
			rows += wire.EncodedSize(b)
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return stream.Bytes(), rows
}

// TestMBW3FourTimesSmallerThanRows holds MBW3 to at least 4x fewer bytes
// than the MBW2 row framing it replaced on the reference stream. The row
// size is the nominal wire.EncodedSize, since nothing writes that framing
// any more; its sum depends only on the samples, so on amd64 (see
// wantPinned) it is pinned too.
func TestMBW3FourTimesSmallerThanRows(t *testing.T) {
	stream, rows := streamReference(t)
	mbw3 := len(stream)
	ratio := float64(rows) / float64(mbw3)
	t.Logf("bytes on wire: mbw2 rows %d B, mbw3 %d B (%.2fx)", rows, mbw3, ratio)
	if ratio < 4 {
		t.Errorf("mbw3 only %.2fx below mbw2 rows on the wire, want >= 4x (rows %d B, mbw3 %d B)",
			ratio, rows, mbw3)
	}
	if runtime.GOARCH == pinnedArch && rows != 457_004 {
		t.Errorf("the reference workload weighs %d B as mbw2 rows, want 457,004: the recording changed", rows)
	}
}

// parentMBW3Bytes is the reference stream's MBW3 size when value columns
// were run-length or nibbles, before they took every packed width.
const parentMBW3Bytes = 102_652

// TestPackedWidthsShrinkReferenceStream is the count gate on packed
// column widths: on amd64 the reference stream takes at most 0.85x the
// bytes it took as run-length and nibble columns (85,269 B, 0.831x, when
// the widths came in; no choice of widths from 1 to 20 gets the escape
// layout below 0.82x on this stream; 73,841 B, 0.719x, since the series
// slot and time index columns are predicted and mode bytes paired; 73,008
// B, 0.711x, since a repeated series table is sent as a rotation).
func TestPackedWidthsShrinkReferenceStream(t *testing.T) {
	stream, _ := streamReference(t)
	mbw3 := len(stream)
	t.Logf("reference stream: %d B of mbw3, %.3fx the %d B of run-length and nibble columns", mbw3, float64(mbw3)/parentMBW3Bytes, parentMBW3Bytes)
	if runtime.GOARCH == pinnedArch && mbw3*100 > parentMBW3Bytes*85 {
		t.Errorf("the reference stream takes %d B of mbw3, want at most 0.85 x %d B", mbw3, parentMBW3Bytes)
	}
}

// predictedColumnBytes is what the reference stream's series-slot and
// time-index columns took, mode bytes included, when they came to be
// predicted: 254 B, where the same frames' delta columns took 10,800 B.
const predictedColumnBytes = 254

// TestPredictedColumnsShrinkReferenceStream is the count gate on the
// predicted per-sample columns: on amd64 the reference stream's
// series-slot and time-index columns take at most predictedColumnBytes.
func TestPredictedColumnsShrinkReferenceStream(t *testing.T) {
	stream, _ := streamReference(t)
	cols := sampleColumnBytes(t, stream)
	t.Logf("reference stream: %d B of series-slot and time-index columns in %d B of mbw3", cols, len(stream))
	if runtime.GOARCH == pinnedArch && cols > predictedColumnBytes {
		t.Errorf("the reference stream's series-slot and time-index columns take %d B, want at most %d", cols, predictedColumnBytes)
	}
}

// sampleColumnBytes walks the MBW3 frames of stream and sums the bytes
// of each payload's first two columns, the series slot and the time
// index: the header, time list and series table skipped — a rotated one,
// whose length is the last table's, included — then one mode byte that
// must pair two run-length columns (modes 0 or 9), then their tokens,
// until each has its sample count.
func sampleColumnBytes(t *testing.T, stream []byte) int {
	t.Helper()
	total, lastTable := 0, uint64(0)
	for len(stream) > 0 {
		n, k := binary.Uvarint(stream[4:])
		p := stream[4+k : 4+k+int(n)]
		stream = stream[4+k+int(n)+4:]
		uvarint := func() uint64 {
			v, k := binary.Uvarint(p)
			p = p[k:]
			return v
		}
		uvarint() // rack
		uvarint() // epoch
		count := uvarint()
		if count == 0 {
			lastTable = 0
			continue
		}
		for i := uvarint(); i > 0; i-- { // times
			uvarint()
		}
		if nSeries := uvarint(); nSeries == 0 { // the last table, rotated
			if lastTable > 1 {
				uvarint()
			}
		} else {
			lastTable = nSeries
			for i := nSeries; i > 0; i-- { // series table: port, then dir|kind
				uvarint()
				p = p[1:]
			}
		}
		start := len(p)
		if m := p[0]; m&15 != 0 && m&15 != 9 || m>>4 != 1 && m>>4 != 10 {
			t.Fatalf("mode byte %#x does not pair two run-length columns", m)
		}
		p = p[1:]
		for col := 0; col < 2; col++ {
			for got := uint64(0); got < count; {
				tok := uvarint()
				vals := tok >> 1 // a literal's values follow it
				if tok&1 == 1 {
					vals = 1 // a run's one value
				}
				for ; vals > 0; vals-- {
					uvarint()
				}
				got += tok >> 1
			}
		}
		total += start - len(p)
	}
	return total
}
