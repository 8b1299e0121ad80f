package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/obs"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// failingSyncFile wraps a real file but lies dead on Sync — the fsync
// failure mode a daemon must turn into a non-zero exit.
type failingSyncFile struct {
	*os.File
	fail *bool
}

func (f *failingSyncFile) Sync() error {
	if *f.fail {
		return errors.New("sync: I/O error")
	}
	return f.File.Sync()
}

func testBatch(i int) *wire.Batch {
	return &wire.Batch{Rack: 1, Epoch: 1, Samples: []wire.Sample{
		{Time: simclock.Epoch.Add(simclock.Micros(int64(i) * 50)), Port: 1, Value: uint64(i) * 100},
	}}
}

// newTestIngest builds the same durable pipeline run() assembles, over
// an archive whose files fail Sync when *failSync is set.
func newTestIngest(t *testing.T, dir string, failSync *bool) (*collector.Shard, *trace.ArchiveWriter) {
	t.Helper()
	arch, err := trace.CreateArchive(dir, trace.ArchiveConfig{
		SyncEvery: 1000, // keep syncs out of WriteBatch; shutdown triggers them
		Open: func(path string) (io.WriteCloser, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &failingSyncFile{File: f, fail: failSync}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ingest, err := collector.NewShard(collector.ShardConfig{
		Stats:          &collector.IngestStats{},
		Archive:        arch,
		CheckpointPath: filepath.Join(dir, collector.CheckpointFileName),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ingest, arch
}

func TestFinalizeDurableCleanShutdown(t *testing.T) {
	noFail := false
	ingest, arch := newTestIngest(t, filepath.Join(t.TempDir(), "a"), &noFail)
	ingest.Handle(testBatch(0))
	if code := finalizeDurable(obs.DaemonLoggerTo(os.Stderr, "test"), ingest, arch); code != 0 {
		t.Fatalf("clean shutdown exited %d, want 0", code)
	}
}

// TestFinalizeDurableSyncErrorExitsNonZero: an archive whose final sync
// fails must drive a non-zero exit — a silently truncated archive is the
// one failure mode a durability daemon may never hide.
func TestFinalizeDurableSyncErrorExitsNonZero(t *testing.T) {
	fail := false
	ingest, arch := newTestIngest(t, filepath.Join(t.TempDir(), "a"), &fail)
	ingest.Handle(testBatch(0))
	fail = true
	if code := finalizeDurable(obs.DaemonLoggerTo(os.Stderr, "test"), ingest, arch); code == 0 {
		t.Fatal("failed final sync exited 0")
	}
}

// TestFinalizeDurableOpenerFailure: a dying disk surfaces when the
// segment after a checkpoint opens too — the opener fails, the write
// latches, and shutdown reports it.
func TestFinalizeDurableOpenerFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	opened := 0
	arch, err := trace.CreateArchive(dir, trace.ArchiveConfig{
		Open: func(path string) (io.WriteCloser, error) {
			opened++
			if opened > 1 {
				return nil, errors.New("open: no space left on device")
			}
			return os.Create(path)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ingest, err := collector.NewShard(collector.ShardConfig{
		Stats:          &collector.IngestStats{},
		Archive:        arch,
		CheckpointPath: filepath.Join(dir, collector.CheckpointFileName),
	})
	if err != nil {
		t.Fatal(err)
	}
	ingest.Handle(testBatch(0))
	if err := ingest.Checkpoint(); err != nil { // seals segment 1
		t.Fatal(err)
	}
	ingest.Handle(testBatch(1)) // segment 2: the opener fails here
	if ingest.Err() == nil && finalizeDurable(obs.DaemonLoggerTo(os.Stderr, "test"), ingest, arch) == 0 {
		t.Fatal("opener failure surfaced neither as a sticky error nor a non-zero exit")
	}
}

// The cases below drive run() — flag parsing, the one Shard, the TCP
// server, the debug mux, shutdown — over loopback sockets with real
// collector.Clients (MBW3, epoch 1), the way mbagent talks to it.

// syncBuffer is the daemon's stderr: written by run's goroutines, read
// by the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one run() incarnation on ephemeral loopback ports.
type daemon struct {
	ingest, debug string
	stderr        *syncBuffer
	cancel        context.CancelFunc
	exit          chan int
}

func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{stderr: &syncBuffer{}, cancel: cancel, exit: make(chan int, 1)}
	type addrs struct{ ingest, debug string }
	ready := make(chan addrs, 1)
	args = append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-stats", "1h"}, args...)
	go func() {
		d.exit <- run(ctx, args, d.stderr, func(ingest, debug string) { ready <- addrs{ingest, debug} })
	}()
	t.Cleanup(cancel)
	select {
	case a := <-ready:
		d.ingest, d.debug = a.ingest, a.debug
	case code := <-d.exit:
		t.Fatalf("mbcollectd %v exited %d before listening:\n%s", args, code, d.stderr)
	}
	return d
}

// stop is the SIGTERM path: cancel, wait for the drain, return the exit
// code.
func (d *daemon) stop() int {
	d.cancel()
	return <-d.exit
}

func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + d.debug + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
	}
	return body
}

// metric reads one unlabelled series off /metrics.
func (d *daemon) metric(t *testing.T, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(d.get(t, "/metrics")), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not served", name)
	return 0
}

// waitDrained blocks until the daemon has accepted conns connections and
// read every one of them to EOF — the event after which everything the
// (closed) clients sent has been through the pipeline.
func (d *daemon) waitDrained(t *testing.T, conns int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.metric(t, "mburst_server_connections_total") != float64(conns) ||
		d.metric(t, "mburst_server_active_connections") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not drain %d connections:\n%s", conns, d.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) ingestStats(t *testing.T) collector.Snapshot {
	t.Helper()
	var snap collector.Snapshot
	if err := json.Unmarshal(d.get(t, "/stats/ingest"), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

const rackBatchSamples = 8

// rackBatch is batch i of a rack's stream: monotone time, a cumulative
// byte counter alternating hot and cold stretches so /figures has bursts
// to report.
func rackBatch(i int) []wire.Sample {
	out := make([]wire.Sample, rackBatchSamples)
	for j := range out {
		seq := i*rackBatchSamples + j
		frac := 0.1
		if (seq/6)%2 == 1 {
			frac = 0.95
		}
		out[j] = wire.Sample{
			Time: simclock.Epoch.Add(simclock.Micros(int64(seq) * 25)),
			Port: 1, Dir: asic.TX, Kind: asic.KindBytes,
			Value: uint64(seq) * uint64(frac*31250),
		}
	}
	return out
}

// sendRack streams the listed batches of one rack over a fresh
// connection — a repeated or regressing index is a retransmission — and
// closes it.
func (d *daemon) sendRack(t *testing.T, rack uint32, batches ...int) {
	t.Helper()
	samples := make([][]wire.Sample, len(batches))
	for k, i := range batches {
		samples[k] = rackBatch(i)
	}
	d.send(t, rack, samples)
}

// send streams batches of rackBatchSamples samples each as one rack over
// a fresh connection and closes it.
func (d *daemon) send(t *testing.T, rack uint32, batches [][]wire.Sample) {
	t.Helper()
	conn, err := net.Dial("tcp", d.ingest)
	if err != nil {
		t.Fatal(err)
	}
	c, err := collector.NewClientConfigured(conn, collector.ClientConfig{
		Rack: rack, MaxBatch: rackBatchSamples,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetEpoch(1)
	for _, b := range batches {
		for _, s := range b {
			c.Emit(s)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonVolatileGateDedups: the default (volatile) mode runs the same
// gated pipeline as every other mode, so a retransmitted batch is
// dropped and counted, not double-counted.
func TestDaemonVolatileGateDedups(t *testing.T) {
	d := startDaemon(t, "-figures")
	d.sendRack(t, 1, 0, 1, 2, 1) // batch 1 again: a retransmit
	d.sendRack(t, 2, 0, 1, 2)
	d.waitDrained(t, 2)

	snap := d.ingestStats(t)
	want := []collector.RackCount{{Rack: 1, Samples: 3 * rackBatchSamples}, {Rack: 2, Samples: 3 * rackBatchSamples}}
	if snap.Batches != 6 || snap.Samples != 6*rackBatchSamples || !reflect.DeepEqual(snap.PerRack, want) {
		t.Errorf("/stats/ingest = %+v, want 6 batches counted once each", snap)
	}
	if got := d.metric(t, "mburst_server_reordered_batches_total"); got != 1 {
		t.Errorf("mburst_server_reordered_batches_total = %v, want 1", got)
	}
	if !bytes.Contains(d.get(t, "/figures"), []byte(`"samples": 48`)) {
		t.Errorf("/figures did not account 48 samples:\n%s", d.get(t, "/figures"))
	}
	if code := d.stop(); code != 0 {
		t.Errorf("exit %d, want 0:\n%s", code, d.stderr)
	}
}

// TestDaemonResumeByteExact: a durable daemon stopped mid-stream and
// restarted with -resume, then fed the rest of the stream with an
// overlapping retransmission, ends byte-identical at its HTTP surface to
// one that never stopped, with every admitted batch archived once.
func TestDaemonResumeByteExact(t *testing.T) {
	const total, stopAt, resendFrom = 12, 7, 5
	seq := func(from, to int) []int {
		var out []int
		for i := from; i < to; i++ {
			out = append(out, i)
		}
		return out
	}

	oDir := filepath.Join(t.TempDir(), "oracle")
	oracle := startDaemon(t, "-figures", "-archive", oDir, "-checkpoint", "4")
	oracle.sendRack(t, 1, seq(0, total)...)
	oracle.sendRack(t, 2, seq(0, total)...)
	oracle.waitDrained(t, 2)
	wantFigures, wantStats := oracle.get(t, "/figures"), oracle.get(t, "/stats/ingest")
	if code := oracle.stop(); code != 0 {
		t.Fatalf("oracle exit %d:\n%s", code, oracle.stderr)
	}

	dir := filepath.Join(t.TempDir(), "arch")
	d1 := startDaemon(t, "-figures", "-archive", dir, "-checkpoint", "4")
	d1.sendRack(t, 1, seq(0, stopAt)...)
	d1.sendRack(t, 2, seq(0, stopAt)...)
	d1.waitDrained(t, 2)
	if code := d1.stop(); code != 0 {
		t.Fatalf("first incarnation exit %d:\n%s", code, d1.stderr)
	}

	d2 := startDaemon(t, "-figures", "-archive", dir, "-checkpoint", "4", "-resume")
	if !strings.Contains(d2.stderr.String(), "had_checkpoint=true") {
		t.Errorf("resume did not restore a checkpoint:\n%s", d2.stderr)
	}
	d2.sendRack(t, 1, seq(resendFrom, total)...)
	d2.sendRack(t, 2, seq(resendFrom, total)...)
	d2.waitDrained(t, 2)
	if got := d2.get(t, "/figures"); !bytes.Equal(got, wantFigures) {
		t.Errorf("/figures after resume differs from the uninterrupted run:\n got %s\nwant %s", got, wantFigures)
	}
	if got := d2.get(t, "/stats/ingest"); !bytes.Equal(got, wantStats) {
		t.Errorf("/stats/ingest after resume differs:\n got %s\nwant %s", got, wantStats)
	}
	if got := d2.metric(t, "mburst_server_reordered_batches_total"); got != 2*(stopAt-resendFrom) {
		t.Errorf("gate dropped %v retransmits, want %d", got, 2*(stopAt-resendFrom))
	}
	if code := d2.stop(); code != 0 {
		t.Fatalf("resumed incarnation exit %d:\n%s", code, d2.stderr)
	}
	archived := 0
	if err := trace.IterArchive(dir, func(*wire.Batch) error { archived++; return nil }); err != nil {
		t.Fatal(err)
	}
	if archived != 2*total {
		t.Errorf("archive holds %d batches, want the %d admitted", archived, 2*total)
	}
}

// fixtureRacks restates the campaign behind internal/collector's
// checkpoint fixtures (its fixtureTraffic), per rack: racks 1–3 carry a
// cumulative counter that turns hot and cold every three samples, rack 4
// the rackBatch stream, whose counter regresses and latches the series.
func fixtureRacks(rounds int) map[uint32][][]wire.Sample {
	out := make(map[uint32][][]wire.Sample)
	for rack := uint32(1); rack <= 3; rack++ {
		var total uint64
		for seq := 0; seq < rounds*rackBatchSamples; seq++ {
			frac := 0.1
			if (seq/3)%2 == 1 {
				frac = 0.95
			}
			total += uint64(frac * 31250)
			if seq%rackBatchSamples == 0 {
				out[rack] = append(out[rack], nil)
			}
			last := &out[rack][len(out[rack])-1]
			*last = append(*last, wire.Sample{
				Time: simclock.Epoch.Add(simclock.Micros(int64(seq+1) * 25)),
				Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Value: total,
			})
		}
	}
	for i := 0; i < rounds; i++ {
		out[4] = append(out[4], rackBatch(i))
	}
	return out
}

// TestDaemonResumesParentJSONCheckpoint is the upgrade path: a directory
// left by a build that checkpointed as JSON — here the committed
// b3e8392 fixture, 12 rounds in, beside an archive 17 rounds long —
// resumes under this build once the file is renamed checkpoint.mbc, and
// ends byte-identical at /figures to a daemon that saw all 30 rounds.
func TestDaemonResumesParentJSONCheckpoint(t *testing.T) {
	const rounds, ckptRounds, killRounds = 30, 12, 17
	racks := fixtureRacks(rounds)

	oracle := startDaemon(t, "-figures")
	for rack, batches := range racks {
		oracle.send(t, rack, batches)
	}
	oracle.waitDrained(t, len(racks))
	wantFigures, wantStats := oracle.get(t, "/figures"), oracle.get(t, "/stats/ingest")
	if code := oracle.stop(); code != 0 {
		t.Fatalf("oracle exit %d:\n%s", code, oracle.stderr)
	}

	dir := filepath.Join(t.TempDir(), "arch")
	arch, err := trace.CreateArchive(dir, trace.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < killRounds; i++ {
		for rack := uint32(1); rack <= 4; rack++ {
			if err := arch.WriteBatch(&wire.Batch{Rack: rack, Epoch: 1, Samples: racks[rack][i]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile("../../internal/collector/testdata/checkpoint_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, collector.CheckpointFileName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, "-figures", "-archive", dir, "-resume")
	for _, want := range []string{"had_checkpoint=true",
		"checkpoint_batches=" + strconv.Itoa(4*ckptRounds), "replayed=" + strconv.Itoa(4*(killRounds-ckptRounds)),
		"checkpoint_bytes=" + strconv.Itoa(len(legacy)), "load_ms="} {
		if !strings.Contains(d.stderr.String(), want) {
			t.Errorf("resumed line lacks %q:\n%s", want, d.stderr)
		}
	}
	for rack, batches := range racks {
		d.send(t, rack, batches[killRounds:])
	}
	d.waitDrained(t, len(racks))
	if got := d.get(t, "/figures"); !bytes.Equal(got, wantFigures) {
		t.Errorf("/figures after resuming the JSON checkpoint differs from the uninterrupted run:\n got %s\nwant %s", got, wantFigures)
	}
	if got := d.get(t, "/stats/ingest"); !bytes.Equal(got, wantStats) {
		t.Errorf("/stats/ingest differs:\n got %s\nwant %s", got, wantStats)
	}
	if got := d.metric(t, "mburst_collector_checkpoint_bytes"); got != float64(len(legacy)) {
		t.Errorf("mburst_collector_checkpoint_bytes = %v after resume, want the loaded file's %d", got, len(legacy))
	}
	if code := d.stop(); code != 0 {
		t.Fatalf("resumed incarnation exit %d:\n%s", code, d.stderr)
	}
	// The shutdown checkpoint replaced the JSON with this build's encoding.
	saved, err := os.ReadFile(filepath.Join(dir, collector.CheckpointFileName))
	if err != nil || !bytes.HasPrefix(saved, []byte(collector.CheckpointMagic)) {
		t.Errorf("final checkpoint is not MBC1: %v, starts %q", err, saved[:min(len(saved), 4)])
	}
}

// TestDaemonShardPolicesPlacement: -shard/-shards is the same Shard with
// a placement, dropping and counting racks it does not own.
func TestDaemonShardPolicesPlacement(t *testing.T) {
	pl, err := shard.Uniform(2, 1) // the daemon's default -placementseed
	if err != nil {
		t.Fatal(err)
	}
	var mine, foreign uint32
	for r := uint32(1); r < 100; r++ {
		if pl.ShardOf(r) == 1 {
			mine = r
		} else {
			foreign = r
		}
	}
	d := startDaemon(t, "-shard", "1", "-shards", "2")
	d.sendRack(t, mine, 0, 1)
	d.sendRack(t, foreign, 0, 1, 2)
	d.waitDrained(t, 2)

	if got := d.metric(t, "mburst_shard_misrouted_batches_total"); got != 3 {
		t.Errorf("mburst_shard_misrouted_batches_total = %v, want 3", got)
	}
	if snap := d.ingestStats(t); snap.Batches != 2 || len(snap.PerRack) != 1 || snap.PerRack[0].Rack != mine {
		t.Errorf("/stats/ingest = %+v, want only rack %d's 2 batches", snap, mine)
	}
	var served struct {
		Shard     int             `json:"shard"`
		Placement shard.Placement `json:"placement"`
	}
	if err := json.Unmarshal(d.get(t, "/placement"), &served); err != nil {
		t.Fatal(err)
	}
	if served.Shard != 1 || !reflect.DeepEqual(served.Placement, pl) {
		t.Errorf("/placement = %+v, want shard 1 of %+v", served, pl)
	}
	if code := d.stop(); code != 0 {
		t.Errorf("exit %d, want 0:\n%s", code, d.stderr)
	}
}

// TestDaemonFlagMisuseExits2: a flag combination that cannot mean what
// the operator typed is one ERROR line and exit 2 before anything
// listens — including the removed -wire, -out and -epochgate.
func TestDaemonFlagMisuseExits2(t *testing.T) {
	archiveDir := filepath.Join(t.TempDir(), "arch")
	for _, args := range [][]string{
		{"-resume"},
		{"-shard", "1"},
		{"-shard", "5", "-shards", "2"},
		{"-shards", "2"},
		{"-wire", "mbw3"},
		{"-out", "samples.mbw"},
		{"-epochgate"},
		{"-archive", archiveDir, "-shards", "4", "-shard", "9"},
		{"-archive", archiveDir, "-shards", "4"},
	} {
		var stderr bytes.Buffer
		code := run(context.Background(), args, &stderr, func(ingest, debug string) {
			t.Errorf("%v: listening on %s", args, ingest)
		})
		out := strings.TrimSuffix(stderr.String(), "\n")
		if code != 2 || strings.Contains(out, "\n") || !strings.Contains(out, "level=ERROR") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one ERROR line", args, code, out)
		}
		// A rejected flag set must leave nothing behind, or the corrected
		// rerun meets "already holds an archive".
		if _, err := os.Stat(archiveDir); !os.IsNotExist(err) {
			t.Errorf("%v: exit 2 left %s behind (stat err %v)", args, archiveDir, err)
		}
	}
}

func TestDaemonHelpListsFlags(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stderr, nil); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 15 {
		t.Errorf("-h lists %d flags, want 15:\n%s", n, stderr.String())
	}
}
