package trace_test

// End-to-end durability: a collector pipeline writing a real on-disk
// archive is killed mid-stream (torn tail included), resurrected via
// ResumeArchive + Shard.Resume, fed the agent's retransmission
// overlap, and must end byte-identical — decoded archive stream, live
// figures, ingest counters — to a collector that never died.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

func resumeBatch(i int) *wire.Batch {
	const perBatch = 8
	b := &wire.Batch{Rack: 1, Epoch: 1}
	for j := 0; j < perBatch; j++ {
		seq := i*perBatch + j
		at := simclock.Epoch.Add(simclock.Micros(int64(seq) * 25))
		frac := 0.1
		if (seq/6)%2 == 1 {
			frac = 0.95
		}
		b.Samples = append(b.Samples, wire.Sample{
			Time: at, Port: 1, Dir: asic.TX, Kind: asic.KindBytes,
			Value: uint64(seq) * uint64(frac*31250),
		})
	}
	return b
}

type resumePipeline struct {
	ingest  *collector.Shard
	figures *collector.LiveFigures
	stats   *collector.IngestStats
}

func newResumePipeline(t *testing.T, arch collector.ArchiveSink, ckpt string) *resumePipeline {
	t.Helper()
	figures, err := collector.NewLiveFigures(collector.LiveFiguresConfig{
		SpeedOf: func(uint32, uint16) uint64 { return 10_000_000_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := &collector.IngestStats{}
	ingest, err := collector.NewShard(collector.ShardConfig{
		Archive:        arch,
		CheckpointPath: ckpt,
		Every:          4,
		Figures:        figures,
		Stats:          stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &resumePipeline{ingest: ingest, figures: figures, stats: stats}
}

func decodeArchive(t *testing.T, dir string) []wire.Batch {
	t.Helper()
	var out []wire.Batch
	if err := trace.IterArchive(dir, func(b *wire.Batch) error {
		out = append(out, wire.Batch{Rack: b.Rack, Epoch: b.Epoch,
			Samples: append([]wire.Sample(nil), b.Samples...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// openSegmentPath finds the archive's one segment still open for appends.
func openSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	open, err := filepath.Glob(filepath.Join(dir, "seg_*.open"))
	if err != nil || len(open) != 1 {
		t.Fatalf("%s holds open segments %v (%v), want exactly one", dir, open, err)
	}
	return open[0]
}

// runResumeOracle runs a collector that never dies over total batches,
// cleanly closed, and returns it with its archive directory.
func runResumeOracle(t *testing.T, cfg trace.ArchiveConfig, total int) (*resumePipeline, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "oracle")
	arch, err := trace.CreateArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := newResumePipeline(t, arch, filepath.Join(dir, "checkpoint.json"))
	for i := 0; i < total; i++ {
		p.ingest.Handle(resumeBatch(i))
	}
	if err := p.ingest.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	return p, dir
}

// finishAgainst feeds p the batches from..total, closes its archive and
// holds its state — and the decoded archive, when checkArchive — to the
// uninterrupted oracle's.
func finishAgainst(t *testing.T, p *resumePipeline, arch *trace.ArchiveWriter, from, total int,
	oracle *resumePipeline, dir, oDir string, checkArchive bool) {
	t.Helper()
	for i := from; i < total; i++ {
		p.ingest.Handle(resumeBatch(i))
	}
	if err := p.ingest.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	if checkArchive {
		if got, want := decodeArchive(t, dir), decodeArchive(t, oDir); !reflect.DeepEqual(got, want) {
			t.Errorf("archive streams diverge: %d vs %d batches", len(got), len(want))
		}
	}
	if !reflect.DeepEqual(p.figures.State(), oracle.figures.State()) {
		t.Error("live figures diverge from the uninterrupted run")
	}
	if !reflect.DeepEqual(p.stats.Snapshot(), oracle.stats.Snapshot()) {
		t.Errorf("ingest stats diverge: %+v vs %+v", p.stats.Snapshot(), oracle.stats.Snapshot())
	}
}

func TestCollectorCrashResumeByteExact(t *testing.T) {
	const total, killAt = 40, 23
	cfg := trace.ArchiveConfig{SyncEvery: 2}

	oracle, oDir := runResumeOracle(t, cfg, total)

	// Crashing run: same traffic up to killAt, then the process dies with
	// the segment open and a torn frame on its tail.
	dir := filepath.Join(t.TempDir(), "crash")
	ckpt := filepath.Join(dir, "checkpoint.json")
	arch, err := trace.CreateArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := newResumePipeline(t, arch, ckpt)
	for i := 0; i < killAt; i++ {
		p1.ingest.Handle(resumeBatch(i))
	}
	// The kill lands mid-write: garbage on the open segment's tail.
	open, err := os.OpenFile(openSegmentPath(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open.Write([]byte{0x4d, 0x42, 0x99, 0x01}); err != nil {
		t.Fatal(err)
	}
	open.Close()

	// Resurrection: recover the archive, restore the checkpoint, replay
	// the un-checkpointed tail.
	arch2, rec, err := trace.ResumeArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	torn := false
	for _, s := range rec.Scanned {
		if s.Torn {
			torn = true
		}
	}
	if !torn {
		t.Fatal("the injected torn tail was not detected")
	}
	p2 := newResumePipeline(t, arch2, ckpt)
	rep, err := p2.ingest.Resume(func(fn func(*wire.Batch) error) error {
		return trace.IterArchive(dir, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HadCheckpoint {
		t.Fatal("no checkpoint restored")
	}
	if rep.CheckpointBatches+rep.Replayed != rep.ArchiveBatches {
		t.Fatalf("resume covered %d+%d of %d archived batches",
			rep.CheckpointBatches, rep.Replayed, rep.ArchiveBatches)
	}

	// The agent retransmits from its spool horizon — overlapping what the
	// archive already holds — then the stream continues to the end.
	resendFrom := int(rep.ArchiveBatches) - 3
	if resendFrom < 0 {
		resendFrom = 0
	}
	for i := resendFrom; i < total; i++ {
		p2.ingest.Handle(resumeBatch(i))
	}
	if err := p2.ingest.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := arch2.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte-exact fleet state: decoded archive stream, figures, counters.
	if got, want := decodeArchive(t, dir), decodeArchive(t, oDir); !reflect.DeepEqual(got, want) {
		t.Errorf("archive streams diverge: %d vs %d batches", len(got), len(want))
	}
	if !reflect.DeepEqual(p2.figures.State(), oracle.figures.State()) {
		t.Error("live figures diverge from the uninterrupted run")
	}
	if !reflect.DeepEqual(p2.stats.Snapshot(), oracle.stats.Snapshot()) {
		t.Errorf("ingest stats diverge: %+v vs %+v", p2.stats.Snapshot(), oracle.stats.Snapshot())
	}

	// And the rendered figure JSON — what /figures serves — matches too.
	if !reflect.DeepEqual(p2.figures.Snapshot(), oracle.figures.Snapshot()) {
		t.Error("rendered figures snapshot diverges")
	}
}

// unsealedSink drives an archive as builds did before a checkpoint ended
// the open segment: Sync leaves it open, so checkpoint marks fall inside a
// segment.
type unsealedSink struct{ *trace.ArchiveWriter }

func (unsealedSink) Sync() error { return nil }

// TestMidSegmentMarkResumesByteExact: an archive an older build left —
// one segment, the checkpoint mark inside it — still resumes byte-exact.
// The skip lands mid-segment, which is decoded from its start with the
// batches up to the mark dropped.
func TestMidSegmentMarkResumesByteExact(t *testing.T) {
	const total, killAt = 40, 23
	cfg := trace.ArchiveConfig{}
	oracle, oDir := runResumeOracle(t, cfg, total)

	dir := filepath.Join(t.TempDir(), "crash")
	ckpt := filepath.Join(dir, "checkpoint.json")
	arch, err := trace.CreateArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := newResumePipeline(t, unsealedSink{arch}, ckpt)
	for i := 0; i < killAt; i++ {
		p1.ingest.Handle(resumeBatch(i))
	}
	if open := openSegmentPath(t, dir); filepath.Base(open) != "seg_000001.open" {
		t.Fatalf("the older layout keeps one segment open, found %s", open)
	}

	arch2, _, err := trace.ResumeArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2 := newResumePipeline(t, arch2, ckpt)
	rep, err := p2.ingest.Resume(func(fn func(*wire.Batch) error) error {
		return trace.IterArchive(dir, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointBatches != 20 || rep.Replayed != 3 || rep.ArchiveBatches != killAt {
		t.Fatalf("resume %+v, want the mark at 20 inside segment 1 and 3 batches replayed", rep)
	}
	finishAgainst(t, p2, arch2, killAt, total, oracle, dir, oDir, true)
}

// TestResumeReadsNothingBelowTheMark: every checkpoint ends a segment, so
// a resume opens no segment below the mark but the first, where it asks
// for the skip — and of that one it reads one frame. Garbage in place of
// everything else below the mark changes nothing.
func TestResumeReadsNothingBelowTheMark(t *testing.T) {
	const total, killAt = 40, 23
	cfg := trace.ArchiveConfig{}
	oracle, oDir := runResumeOracle(t, cfg, total)

	dir := filepath.Join(t.TempDir(), "crash")
	ckpt := filepath.Join(dir, "checkpoint.json")
	arch, err := trace.CreateArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := newResumePipeline(t, arch, ckpt)
	for i := 0; i < killAt; i++ {
		p1.ingest.Handle(resumeBatch(i))
	}
	arch2, rec, err := trace.ResumeArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SealedSegments != 5 || len(rec.Scanned) != 1 || rec.Scanned[0].Batches != 3 {
		t.Fatalf("recovery %+v, want five sealed 4-batch segments trusted and only the open one's 3 batches scanned", rec)
	}
	for seq := 1; seq <= 5; seq++ { // wholly below the mark at 20
		path := filepath.Join(dir, fmt.Sprintf("seg_%06d.mbw", seq))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		keep := 0
		if seq == 1 {
			n, w := binary.Uvarint(data[4:])
			keep = 4 + w + int(n) + 4
		}
		for i := keep; i < len(data); i++ {
			data[i] = 0xa5
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p2 := newResumePipeline(t, arch2, ckpt)
	rep, err := p2.ingest.Resume(func(fn func(*wire.Batch) error) error {
		return trace.IterArchive(dir, fn)
	})
	if err != nil {
		t.Fatalf("resume read below its mark: %v", err)
	}
	if rep.CheckpointBatches != 20 || rep.Replayed != 3 {
		t.Fatalf("resume %+v, want the mark at 20 and 3 batches replayed", rep)
	}
	finishAgainst(t, p2, arch2, killAt, total, oracle, dir, oDir, false)
}
