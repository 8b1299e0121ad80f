package replay

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/core"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

func writeCampaign(t *testing.T, windows int, samplesPer int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "c")
	w, err := trace.Create(dir, trace.Meta{
		App: "web", NumServers: 8, NumUplinks: 4,
		ServerSpeed: 10e9, UplinkSpeed: 40e9,
		Interval: 25 * simclock.Microsecond, WindowDur: simclock.Millis(10),
		Windows: windows, Seed: 1,
		Counters: []collector.CounterSpec{{Port: 0, Dir: asic.TX, Kind: asic.KindBytes}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for win := 0; win < windows; win++ {
		samples := make([]wire.Sample, samplesPer)
		for i := range samples {
			samples[i] = wire.Sample{
				Time:  simclock.Epoch.Add(simclock.Micros(int64(i+1) * 25)),
				Port:  0,
				Dir:   asic.TX,
				Kind:  asic.KindBytes,
				Value: uint64(win*samplesPer+i) * 1000,
			}
		}
		if err := w.WriteWindow(win, uint32(win), samples); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestReplayUnpacedDeliversEverything(t *testing.T) {
	dir := writeCampaign(t, 3, 5000)
	var buf bytes.Buffer
	st, err := Run(context.Background(), dir, &buf, Options{Unpaced: true, BatchSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != 3 || st.Samples != 15000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Batches != 15 {
		t.Errorf("batches = %d, want 15", st.Batches)
	}
	// The byte stream decodes back to the same sample count.
	r := wire.NewReader(&buf)
	total := 0
	for {
		b, err := r.ReadBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(b.Samples)
	}
	if total != 15000 {
		t.Errorf("decoded %d samples", total)
	}
	// Each window spans (5000-1)×25µs.
	want := 3 * simclock.Duration(4999) * 25 * simclock.Microsecond
	if st.VirtualSpan != want {
		t.Errorf("virtual span = %v, want %v", st.VirtualSpan, want)
	}
}

// legacyTrace is a campaign d36859d's mbsim recorded in the MBW1 row
// framing (2 windows, 304 samples); nothing can write one any more.
const legacyTrace = "../../cmd/mbreplay/testdata/trace_v1_parent"

// TestReplayFormatTranscodes: the outgoing stream is MBW3 whatever the
// trace was recorded in. The legacy fixture and an MBW3 recording of the
// same samples must replay to the same bytes, which decode to the
// fixture's samples.
func TestReplayFormatTranscodes(t *testing.T) {
	src, err := trace.Open(legacyTrace)
	if err != nil {
		t.Fatal(err)
	}
	meta := src.Meta()
	rerecorded := filepath.Join(t.TempDir(), "c")
	w, err := trace.Create(rerecorded, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []wire.Sample
	for win := 0; win < meta.Windows; win++ {
		var rack uint32
		var samples []wire.Sample
		if err := src.IterWindow(win, func(b *wire.Batch) error {
			rack = b.Rack
			samples = append(samples, b.Samples...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteWindow(win, rack, samples); err != nil {
			t.Fatal(err)
		}
		want = append(want, samples...)
	}
	for dir, magic := range map[string]string{legacyTrace: "MBW1", rerecorded: "MBW3"} {
		seg, err := os.ReadFile(filepath.Join(dir, "seg_000001.mbw"))
		if err != nil || !bytes.HasPrefix(seg, []byte(magic)) {
			t.Fatalf("%s: first segment opens with %q (%v), want %s", dir, seg[:4], err, magic)
		}
	}

	var fromLegacy, fromMBW3 bytes.Buffer
	if _, err := Run(context.Background(), legacyTrace, &fromLegacy, Options{Unpaced: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), rerecorded, &fromMBW3, Options{Unpaced: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(fromLegacy.Bytes(), []byte("MBW3")) || !bytes.Equal(fromLegacy.Bytes(), fromMBW3.Bytes()) {
		t.Fatalf("replays differ across recorded formats: %d B from the legacy trace, %d B from the mbw3 one",
			fromLegacy.Len(), fromMBW3.Len())
	}
	var got []wire.Sample
	r := wire.NewReader(&fromLegacy)
	for {
		b, err := r.ReadBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b.Samples...)
	}
	if len(got) != 304 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replay decoded to %d samples, the fixture holds %d (want 304, equal)", len(got), len(want))
	}
}

func TestReplayPacingSleeps(t *testing.T) {
	dir := writeCampaign(t, 1, 4096)
	var slept time.Duration
	var buf bytes.Buffer
	_, err := Run(context.Background(), dir, &buf, Options{
		Speedup:      10,
		BatchSamples: 2048,
		Sleep:        func(d time.Duration) { slept += d },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2048 samples × 25µs ≈ 51.2ms of virtual time per flushed batch; at
	// 10× speedup ≈ 5.12ms per batch, two full batches ≈ 10.2ms total.
	if slept < 8*time.Millisecond || slept > 13*time.Millisecond {
		t.Errorf("slept %v, want ≈10.2ms", slept)
	}
}

func TestReplayMaxGapClampsSleeps(t *testing.T) {
	dir := writeCampaign(t, 1, 4096)
	run := func(maxGap time.Duration) (time.Duration, Stats) {
		var slept time.Duration
		var buf bytes.Buffer
		st, err := Run(context.Background(), dir, &buf, Options{
			Speedup:      10,
			BatchSamples: 2048,
			MaxGap:       maxGap,
			Sleep:        func(d time.Duration) { slept += d },
		})
		if err != nil {
			t.Fatal(err)
		}
		return slept, st
	}
	// Unclamped: ≈5.12 ms per flushed batch (see TestReplayPacingSleeps).
	// A 1 ms MaxGap caps each of the two sleeps.
	clamped, st := run(time.Millisecond)
	if clamped > 2*time.Millisecond {
		t.Errorf("clamped sleep total %v exceeds 2×MaxGap", clamped)
	}
	if st.GapClamps != 2 {
		t.Errorf("GapClamps = %d, want 2", st.GapClamps)
	}
	if st.Samples != 4096 {
		t.Errorf("samples = %d: clamping must not drop data", st.Samples)
	}
	// Zero MaxGap preserves gaps verbatim.
	verbatim, st0 := run(0)
	if verbatim <= clamped {
		t.Errorf("verbatim sleep %v not above clamped %v", verbatim, clamped)
	}
	if st0.GapClamps != 0 {
		t.Errorf("GapClamps = %d without MaxGap", st0.GapClamps)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := Run(context.Background(), filepath.Join(t.TempDir(), "missing"), &bytes.Buffer{}, Options{}); err == nil {
		t.Error("missing campaign accepted")
	}
	dir := writeCampaign(t, 1, 10)
	if _, err := Run(context.Background(), dir, failingWriter{}, Options{Unpaced: true, BatchSamples: 4}); err == nil {
		t.Error("write failure not propagated")
	}
	// A fleet directory has no windows to replay; silence would look like
	// an empty campaign.
	fleet := filepath.Join("..", "..", "cmd", "mbdump", "testdata", "fleet_parent")
	if _, err := Run(context.Background(), fleet, &bytes.Buffer{}, Options{Unpaced: true}); err == nil || !strings.Contains(err.Error(), "per-shard archives") {
		t.Errorf("fleet directory: err = %v, want a refusal naming the per-shard archives", err)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestReplayIntoLiveCollector(t *testing.T) {
	// End-to-end: replay a campaign into a real collector service.
	dir := writeCampaign(t, 2, 3000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &collector.MemSink{}
	srv := collector.ServeConfigured(ln, sink.Handle, collector.ServerConfig{})
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(context.Background(), dir, conn, Options{Unpaced: true})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Samples()) < st.Samples {
		if time.Now().After(deadline) {
			t.Fatalf("collector got %d/%d", len(sink.Samples()), st.Samples)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.LastErr(); err != nil {
		t.Errorf("stream error: %v", err)
	}
}

// TestReplayThroughEpochGate replays several windows of one rack — each
// restarting virtual time — through the gate mbcollectd -archive implies.
// Everything sent must be admitted: the later windows arrive as epoch
// bumps, not as same-epoch time regressions the gate drops as reordering.
func TestReplayThroughEpochGate(t *testing.T) {
	cfg := core.QuickConfig()
	cfg.Servers = 4
	cfg.Windows = 3
	cfg.WindowDur = 10 * simclock.Millisecond
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "c")
	if err := exp.RecordCampaign(context.Background(), workload.Web, dir, 0, "gate", exp.RandomPortCounters(workload.Web)); err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	st, err := Run(context.Background(), dir, &stream, Options{Unpaced: true, BatchSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != 3 || st.Batches < 6 {
		t.Fatalf("vacuous replay: %+v", st)
	}

	var batches, samples int
	gate := collector.NewEpochGate(func(b *wire.Batch) {
		batches++
		samples += len(b.Samples)
	}, nil)
	r := wire.NewReader(&stream)
	for {
		b, err := r.ReadBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		gate.Handle(b)
	}
	if batches != st.Batches || samples != st.Samples {
		t.Errorf("gate admitted %d batches / %d samples of the %d / %d replayed",
			batches, samples, st.Batches, st.Samples)
	}
}
