package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// recordWireBenchWindows records the reference bytes-on-wire workload:
// the Web application polled for the paper's full counter set — every
// port's byte counter and packet-size histogram plus the shared buffer
// peak — at the 25 µs campaign interval. This is the steady agent
// traffic of a full-fidelity collection deployment (Figs 1-10 combined),
// which the wire formats are compared on.
func recordWireBenchWindows(tb testing.TB) [][]wire.Sample {
	tb.Helper()
	cfg := QuickConfig()
	cfg.Servers = 8
	cfg.Windows = 2
	cfg.WindowDur = 100 * simclock.Millisecond
	exp, err := NewExperiment(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	err = exp.RecordCampaign(context.Background(), workload.Web, dir,
		ByteCampaignInterval, "wire format benchmark", FullCounters())
	if err != nil {
		tb.Fatal(err)
	}
	r, err := trace.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	windows := make([][]wire.Sample, r.Meta().Windows)
	for i := range windows {
		if windows[i], err = readWindow(r, i); err != nil {
			tb.Fatal(err)
		}
		if len(windows[i]) == 0 {
			tb.Fatalf("window %d empty — benchmark is vacuous", i)
		}
	}
	return windows
}

// collectorBatchSize mirrors collector.DefaultBatchSize without importing
// the collector package into the benchmark.
const collectorBatchSize = 2048

// encodeStream streams every window through one client-style connection
// (DefaultBatchSize samples per batch, one codec for the whole stream,
// exactly like collector.Client). Beside the encoded stream it returns
// what the same batches would weigh in the MBW2 row framing — the nominal
// wire.EncodedSize, since nothing writes that format any more.
func encodeStream(tb testing.TB, windows [][]wire.Sample) (stream []byte, batches int, rowBytes int64) {
	tb.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for _, samples := range windows {
		for off := 0; off < len(samples); off += collectorBatchSize {
			b := &wire.Batch{Rack: 1, Epoch: 1, Samples: samples[off:min(off+collectorBatchSize, len(samples))]}
			rowBytes += int64(wire.EncodedSize(b))
			if err := w.WriteBatch(b); err != nil {
				tb.Fatal(err)
			}
			batches++
		}
	}
	return buf.Bytes(), batches, rowBytes
}

// drainStream decodes every batch of an encoded stream through a reused
// reader, returning the number of batches and samples seen.
func drainStream(tb testing.TB, r *wire.Reader, src *bytes.Reader, stream []byte) (batches, samples int) {
	src.Reset(stream)
	r.Reset(src)
	for {
		b, err := r.ReadBatch()
		if err == io.EOF {
			return batches, samples
		}
		if err != nil {
			tb.Fatal(err)
		}
		batches++
		samples += len(b.Samples)
	}
}

// TestWireBenchArtifact measures the wire format on the reference Web
// workload, against the nominal size of the MBW2 row framing it replaced,
// and publishes BENCH_wire.json. Gated on MBURST_WIRE_BENCH_OUT
// so it only runs in the dedicated CI step (alloc counts are meaningless
// under the race detector). Hard gates: MBW3 must put >= 4x fewer bytes
// on the wire than MBW2, and the steady-state encode and ingest paths
// must allocate nothing per batch. The ingest-throughput ceiling is
// recorded alongside for regression tracking.
func TestWireBenchArtifact(t *testing.T) {
	out := os.Getenv("MBURST_WIRE_BENCH_OUT")
	if out == "" {
		t.Skip("MBURST_WIRE_BENCH_OUT not set")
	}
	windows := recordWireBenchWindows(t)
	totalSamples := 0
	for _, w := range windows {
		totalSamples += len(w)
	}

	stream3, batches, bytes2 := encodeStream(t, windows)
	bytes3 := int64(len(stream3))
	ratio := float64(bytes2) / float64(bytes3)

	// Steady-state encode: the same batch re-encoded through a chained
	// codec, the collector.Client hot path.
	steady := &wire.Batch{Rack: 1, Epoch: 1, Samples: windows[0][:collectorBatchSize]}
	w3 := wire.NewWriter(io.Discard)
	encodeAllocs := testing.AllocsPerRun(200, func() {
		if err := w3.WriteBatch(steady); err != nil {
			t.Fatal(err)
		}
	})

	// Steady-state ingest: replaying the encoded stream through one
	// reused Reader, the collector.Server hot path.
	src := bytes.NewReader(stream3)
	r := wire.NewReader(src)
	r.SetReuse(true)
	drainStream(t, r, src, stream3) // warm the scratch buffers
	ingestAllocs := testing.AllocsPerRun(20, func() {
		drainStream(t, r, src, stream3)
	}) / float64(batches)

	// Ingest-throughput ceiling: decoded batches per second at
	// saturation, same path as the alloc measurement.
	reps := 0
	start := time.Now()
	for time.Since(start) < 500*time.Millisecond {
		drainStream(t, r, src, stream3)
		reps++
	}
	elapsed := time.Since(start)
	batchesPerSec := float64(reps*batches) / elapsed.Seconds()
	samplesPerSec := float64(reps*totalSamples) / elapsed.Seconds()

	artifact := struct {
		Name          string  `json:"name"`
		Workload      string  `json:"workload"`
		Samples       int     `json:"samples"`
		Batches       int     `json:"batches"`
		CPUs          int     `json:"cpus"`
		BytesMBW2     int64   `json:"bytes_mbw2"`
		BytesMBW3     int64   `json:"bytes_mbw3"`
		BytesRatio    float64 `json:"bytes_ratio"`
		EncodeAllocs  float64 `json:"encode_allocs_per_op"`
		IngestAllocs  float64 `json:"ingest_allocs_per_op"`
		IngestBatches float64 `json:"ingest_batches_per_sec"`
		IngestSamples float64 `json:"ingest_samples_per_sec"`
	}{
		Name:          "wire_formats",
		Workload:      "web/full-counters/25us",
		Samples:       totalSamples,
		Batches:       batches,
		CPUs:          runtime.NumCPU(),
		BytesMBW2:     bytes2,
		BytesMBW3:     bytes3,
		BytesRatio:    ratio,
		EncodeAllocs:  encodeAllocs,
		IngestAllocs:  ingestAllocs,
		IngestBatches: batchesPerSec,
		IngestSamples: samplesPerSec,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("bytes on wire: mbw2 %d B, mbw3 %d B (%.2fx); encode %.2f allocs/op, ingest %.4f allocs/batch, %.0f batches/s",
		bytes2, bytes3, ratio, encodeAllocs, ingestAllocs, batchesPerSec)

	if ratio < 4 {
		t.Errorf("mbw3 only %.2fx below mbw2 on the wire, want >= 4x (mbw2 %d B, mbw3 %d B)",
			ratio, bytes2, bytes3)
	}
	if encodeAllocs != 0 {
		t.Errorf("steady encode allocates %.2f/op, want 0", encodeAllocs)
	}
	if ingestAllocs != 0 {
		t.Errorf("steady ingest allocates %.4f/batch, want 0", ingestAllocs)
	}
}

// BenchmarkWireEncode measures steady-state batch encoding.
// Run with:
//
//	go test -run=^$ -bench=BenchmarkWire ./internal/core
func BenchmarkWireEncode(b *testing.B) {
	windows := recordWireBenchWindows(b)
	batch := &wire.Batch{Rack: 1, Epoch: 1, Samples: windows[0][:collectorBatchSize]}
	w := wire.NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireIngest measures steady-state stream decoding.
func BenchmarkWireIngest(b *testing.B) {
	stream, batches, _ := encodeStream(b, recordWireBenchWindows(b))
	src := bytes.NewReader(stream)
	r := wire.NewReader(src)
	r.SetReuse(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batches {
		drainStream(b, r, src, stream)
	}
}
