package collector

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mburst/internal/asic"
	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// memArchive is an in-memory ArchiveSink: deep-copied batches (handlers
// may not retain the decoded batch) plus injectable failures.
type memArchive struct {
	batches   []*wire.Batch
	syncs     int
	failWrite error
	failSync  error
}

func (m *memArchive) WriteBatch(b *wire.Batch) error {
	if m.failWrite != nil {
		return m.failWrite
	}
	cp := &wire.Batch{Rack: b.Rack, Epoch: b.Epoch, Samples: append([]wire.Sample(nil), b.Samples...)}
	m.batches = append(m.batches, cp)
	return nil
}

func (m *memArchive) Sync() error {
	if m.failSync != nil {
		return m.failSync
	}
	m.syncs++
	return nil
}

func (m *memArchive) Batches() uint64 { return uint64(len(m.batches)) }

// iter streams the log as Resume requires: in write order, through one
// batch it refills for every call, honouring wire.SkipTo.
func (m *memArchive) iter(fn func(*wire.Batch) error) error { return tailIter(m, 0, false)(fn) }

var errIterFailed = errors.New("archive read failed")

// tailIter streams arch as trace.IterArchive does: through one batch it
// refills for every call, honouring SkipTo unless noSkip, and failing
// with errIterFailed before delivering batch failAt when failAt > 0.
func tailIter(arch *memArchive, failAt int, noSkip bool) func(func(*wire.Batch) error) error {
	return func(fn func(*wire.Batch) error) error {
		var b wire.Batch
		for i, calls := 0, 0; i < len(arch.batches); i++ {
			if calls++; calls == failAt {
				return errIterFailed
			}
			src := arch.batches[i]
			b.Rack, b.Epoch = src.Rack, src.Epoch
			b.Samples = append(b.Samples[:0], src.Samples...)
			err := fn(&b)
			if to, ok := err.(wire.SkipTo); ok && !noSkip {
				// Position to+1 is index to, where the loop's i++ lands.
				i = max(i, int(min(uint64(to), uint64(len(arch.batches))))-1)
				continue
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// ckptBatch builds batch i for rack: multi-sample, monotone time, a
// cumulative byte counter that exercises the live figures.
func ckptBatch(rack uint32, epoch uint32, i int) *wire.Batch {
	const perBatch = 8
	b := &wire.Batch{Rack: rack, Epoch: epoch}
	for j := 0; j < perBatch; j++ {
		seq := i*perBatch + j
		at := simclock.Epoch.Add(simclock.Micros(int64(seq) * 25))
		// Alternate hot/cold stretches so bursts open and close.
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

func newCkptFigures(t *testing.T) *LiveFigures {
	t.Helper()
	f, err := NewLiveFigures(LiveFiguresConfig{
		SpeedOf: func(uint32, uint16) uint64 { return 10_000_000_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newDurable(t *testing.T, arch ArchiveSink, path string, every int) (*Shard, *LiveFigures, *IngestStats) {
	t.Helper()
	figures := newCkptFigures(t)
	stats := &IngestStats{}
	d, err := NewShard(ShardConfig{
		Archive:        arch,
		CheckpointPath: path,
		Every:          every,
		Figures:        figures,
		Stats:          stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, figures, stats
}

// TestDurableIngestResumeByteExact is the core durability property: kill
// the pipeline after an arbitrary batch, rebuild it from the checkpoint
// plus archive tail, continue ingesting, and every piece of state —
// figures, ingest counters, gate horizon — matches a pipeline that never
// died.
func TestDurableIngestResumeByteExact(t *testing.T) {
	const total, killAt = 30, 17
	for _, every := range []int{1, 4, 1000} {
		// Oracle: never crashes.
		oArch := &memArchive{}
		oracle, oFigures, oStats := newDurable(t, oArch, filepath.Join(t.TempDir(), "ckpt.json"), every)
		for i := 0; i < total; i++ {
			oracle.Handle(ckptBatch(1, 1, i))
			oracle.Handle(ckptBatch(2, 1, i))
		}

		// Crashing run: same traffic up to killAt, then the process dies —
		// everything volatile is gone, only arch + the checkpoint survive.
		arch := &memArchive{}
		path := filepath.Join(t.TempDir(), "ckpt.json")
		d1, _, _ := newDurable(t, arch, path, every)
		for i := 0; i < killAt; i++ {
			d1.Handle(ckptBatch(1, 1, i))
			d1.Handle(ckptBatch(2, 1, i))
		}

		// Resurrected run: fresh accumulators, Resume, then the rest of the
		// traffic.
		d2, figures, stats := newDurable(t, arch, path, every)
		rep, err := d2.Resume(arch.iter)
		if err != nil {
			t.Fatalf("every=%d: Resume: %v", every, err)
		}
		if rep.CheckpointBatches+rep.Replayed != rep.ArchiveBatches {
			t.Fatalf("every=%d: resume covered %d+%d of %d archived batches",
				every, rep.CheckpointBatches, rep.Replayed, rep.ArchiveBatches)
		}
		if every <= killAt && !rep.HadCheckpoint {
			t.Fatalf("every=%d: no checkpoint found", every)
		}
		for i := killAt; i < total; i++ {
			d2.Handle(ckptBatch(1, 1, i))
			d2.Handle(ckptBatch(2, 1, i))
		}

		if !reflect.DeepEqual(figures.State(), oFigures.State()) {
			t.Errorf("every=%d: figures state diverges from uninterrupted run", every)
		}
		if !reflect.DeepEqual(stats.Snapshot(), oStats.Snapshot()) {
			t.Errorf("every=%d: ingest stats diverge: %+v vs %+v", every, stats.Snapshot(), oStats.Snapshot())
		}
		if !reflect.DeepEqual(d2.gate.State(), oracle.gate.State()) {
			t.Errorf("every=%d: gate state diverges", every)
		}
		if arch.Batches() != oArch.Batches() {
			t.Errorf("every=%d: archive holds %d batches, oracle %d", every, arch.Batches(), oArch.Batches())
		}
	}
}

// TestDurableIngestResumeDedupsRetransmits proves exactly-once delivery
// end to end: an agent that retransmits its spool after a collector
// crash re-sends batches the archive already holds, and the restored
// gate drops every one of them.
func TestDurableIngestResumeDedupsRetransmits(t *testing.T) {
	const total, killAt, resendFrom = 20, 12, 7
	oArch := &memArchive{}
	oracle, _, oStats := newDurable(t, oArch, filepath.Join(t.TempDir(), "ckpt.json"), 4)
	for i := 0; i < total; i++ {
		oracle.Handle(ckptBatch(1, 1, i))
	}

	arch := &memArchive{}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	d1, _, _ := newDurable(t, arch, path, 4)
	for i := 0; i < killAt; i++ {
		d1.Handle(ckptBatch(1, 1, i))
	}

	d2, _, stats := newDurable(t, arch, path, 4)
	if _, err := d2.Resume(arch.iter); err != nil {
		t.Fatal(err)
	}
	// The agent cannot know which batches the collector archived before
	// dying, so it replays from its spool horizon — overlapping what
	// already landed — then continues with new traffic.
	for i := resendFrom; i < total; i++ {
		d2.Handle(ckptBatch(1, 1, i))
	}

	if got, want := stats.Snapshot(), oStats.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("retransmits double-counted: %+v vs oracle %+v", got, want)
	}
	if arch.Batches() != oArch.Batches() {
		t.Errorf("archive holds %d batches, oracle %d — duplicates were archived", arch.Batches(), oArch.Batches())
	}
}

func TestDurableIngestArchiveErrorSticky(t *testing.T) {
	arch := &memArchive{}
	d, _, _ := newDurable(t, arch, "", 4)
	d.Handle(ckptBatch(1, 1, 0))
	boom := errors.New("disk gone")
	arch.failWrite = boom
	d.Handle(ckptBatch(1, 1, 1))
	if err := d.Err(); err == nil || !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want wrapped %v", d.Err(), boom)
	}
	arch.failWrite = nil
	d.Handle(ckptBatch(1, 1, 2)) // must stay dead: the stream has a hole
	if arch.Batches() != 1 {
		t.Fatalf("archive took %d batches after a fatal error, want 1", arch.Batches())
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded on a dead pipeline")
	}
}

func TestDurableIngestSyncErrorFatal(t *testing.T) {
	arch := &memArchive{failSync: errors.New("fsync lost")}
	d, _, _ := newDurable(t, arch, filepath.Join(t.TempDir(), "ckpt.json"), 2)
	d.Handle(ckptBatch(1, 1, 0))
	d.Handle(ckptBatch(1, 1, 1)) // cadence point: sync fails inside checkpoint
	if d.Err() == nil {
		t.Fatal("failed archive sync did not latch as fatal")
	}
}

// TestDurableIngestShortfall: a checkpoint that claims more batches than
// the archive holds (the storage stack lied about fsync) must be
// reported, not replayed past the end or silently trusted.
func TestDurableIngestShortfall(t *testing.T) {
	arch := &memArchive{}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	d1, _, _ := newDurable(t, arch, path, 5)
	for i := 0; i < 10; i++ {
		d1.Handle(ckptBatch(1, 1, i))
	}
	// The crash reveals the lie: two "durable" batches never hit the disk.
	arch.batches = arch.batches[:8]

	d2, _, _ := newDurable(t, arch, path, 5)
	rep, err := d2.Resume(arch.iter)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shortfall != 2 || rep.Replayed != 0 {
		t.Fatalf("report %+v, want shortfall 2 and no replay", rep)
	}
}

func TestLoadCheckpointMissingIsNotAnError(t *testing.T) {
	st, ok, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil || ok {
		t.Fatalf("LoadCheckpoint(missing) = %+v, %v, %v", st, ok, err)
	}
}

func TestEpochGateStateRoundTrip(t *testing.T) {
	g := NewEpochGate(func(*wire.Batch) {}, nil)
	g.Handle(ckptBatch(3, 2, 0))
	g.Handle(ckptBatch(1, 1, 5))
	state := g.State()
	g2 := NewEpochGate(func(*wire.Batch) {}, nil)
	g2.RestoreState(state)
	if !reflect.DeepEqual(g2.State(), state) {
		t.Fatalf("gate state did not round-trip: %+v vs %+v", g2.State(), state)
	}
	// The restored horizon still rejects a stale replay.
	if v := g2.admit(ckptBatch(1, 1, 2)); v != "drop-reorder" {
		t.Fatalf("restored gate admitted a regressed batch: %v", v)
	}
}

// TestRecoveryMetricsMeasureCheckpointAndResume: with RecoveryMetrics
// attached, every save reports its size and its cut-to-rename duration,
// and a Resume reports the size it loaded, the load's duration and its
// own — all read off the metrics' injected clock, here one that advances
// a millisecond per reading.
func TestRecoveryMetricsMeasureCheckpointAndResume(t *testing.T) {
	var clock time.Time
	tick := func() time.Time { clock = clock.Add(time.Millisecond); return clock }
	newMetered := func(arch ArchiveSink, path string) (*Shard, *RecoveryMetrics) {
		rm := NewRecoveryMetrics(obs.NewRegistry())
		rm.Now = tick
		d, err := NewShard(ShardConfig{Archive: arch, CheckpointPath: path, Every: 4,
			Figures: newCkptFigures(t), Stats: &IngestStats{}, RecoveryMetrics: rm})
		if err != nil {
			t.Fatal(err)
		}
		return d, rm
	}
	arch := &memArchive{}
	path := filepath.Join(t.TempDir(), CheckpointFileName)
	d1, rm1 := newMetered(arch, path)
	for i := 0; i < 10; i++ {
		d1.Handle(ckptBatch(1, 1, i))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rm1.CheckpointBytes.Value(); got != float64(fi.Size()) {
		t.Errorf("checkpoint_bytes = %v, the file is %d", got, fi.Size())
	}
	// Two saves, each bracketed by two clock readings a millisecond apart.
	if n, sum := rm1.CheckpointSeconds.Count(), rm1.CheckpointSeconds.Sum(); n != 2 || sum != 0.002 {
		t.Errorf("checkpoint_seconds saw %d saves totalling %vs, want 2 and 0.002", n, sum)
	}
	if rm1.ResumeSeconds.Value() != 0 {
		t.Error("resume_seconds set on a shard that never resumed")
	}

	d2, rm2 := newMetered(arch, path)
	rep, err := d2.Resume(arch.iter)
	if err != nil || rep.Replayed != 2 {
		t.Fatalf("Resume = %+v, %v; want 2 replayed", rep, err)
	}
	if got := rm2.CheckpointBytes.Value(); got != float64(fi.Size()) {
		t.Errorf("checkpoint_bytes after resume = %v, the loaded file is %d", got, fi.Size())
	}
	// Readings: Resume's start, after the load, at return.
	if load, all := rm2.CheckpointLoadSeconds.Value(), rm2.ResumeSeconds.Value(); load != 0.001 || all != 0.002 {
		t.Errorf("checkpoint_load_seconds = %v, resume_seconds = %v; want 0.001 and 0.002", load, all)
	}
}

// resumeCase is one generated crash for TestResumeMatchesReference: the
// traffic the dead shard took, its checkpoint cadence, what the crash
// left for the resume (resumeKinds) and a position that kind uses.
type resumeCase struct {
	Ops   []cutOp
	Every uint8
	Kind  uint8
	At    uint8
}

// The crashes a resumeCase can leave behind.
const (
	resumeMBC1       = iota // the last checkpoint, as written
	resumeLegacyJSON        // the same state, as an older binary saved it
	resumeMissing           // no checkpoint file
	resumeShortfall         // the archive lost batches the checkpoint covers
	resumeIterFails         // the iterator fails partway
	resumeNoSkip            // the iterator does not honour SkipTo
	resumeCorrupt           // damaged checkpoint bytes
	resumeNoPath            // a shard configured without checkpoints
	resumeKinds
)

// damageCheckpoint spoils the file at path, unsealed, so the checksum
// (or, for JSON, the syntax) is what catches it: a flipped bit, the mark
// spelled 0x80 0x00, or a cut.
func damageCheckpoint(t *testing.T, path string, at uint8) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const mark = len(CheckpointMagic) + 1
	switch {
	case at%3 == 0:
		data[int(at)%len(data)] ^= 1 << (at % 8)
	case at%3 == 1 && len(data) > mark:
		data = append(append(data[:mark:mark], 0x80, 0x00), data[mark+1:]...)
	default:
		data = data[:int(at)%len(data)]
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// resumeOutcome is everything a resume decides: its report and error,
// and the state of every restored stage.
type resumeOutcome struct {
	Rep       ResumeReport
	Err       string
	Gate      []RackEpochState
	Stats     Snapshot
	Figures   FiguresState
	SinceCkpt int
}

func resumeWith(t *testing.T, resume func(*Shard, func(func(*wire.Batch) error) error) (ResumeReport, error),
	arch *memArchive, path string, every int, iter func(func(*wire.Batch) error) error) resumeOutcome {
	t.Helper()
	sh, figures, stats := newDurable(t, arch, path, every)
	rep, err := resume(sh, iter)
	out := resumeOutcome{Rep: rep, Gate: sh.gate.State(), Stats: stats.Snapshot(),
		Figures: refFiguresState(figures), SinceCkpt: sh.sinceCkpt}
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

// TestResumeMatchesReference holds Shard.Resume, which restores the
// checkpoint on a goroutine of its own while it reads the archive tail, to
// refResume, which does one after the other: over generated crashes —
// MBC1 and legacy JSON checkpoints, a missing or damaged one, a
// shortfall, a failing iterator and one that cannot skip — the two
// report, fail and restore alike, and so do they from every
// parent-written checkpoint fixture.
func TestResumeMatchesReference(t *testing.T) {
	same := func(what string, arch *memArchive, path string, every int, iter func(func(*wire.Batch) error) error) bool {
		t.Helper()
		got := resumeWith(t, (*Shard).Resume, arch, path, every, iter)
		want := resumeWith(t, refResume, arch, path, every, iter)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Resume diverges from refResume\n got %+v\nwant %+v", what, got, want)
			return false
		}
		return true
	}

	traffic := fixtureTraffic(fixtureCkptRounds + 5)
	for _, fixture := range []string{parentCheckpoint, compactCheckpoint, binaryCheckpoint} {
		arch := &memArchive{}
		for _, b := range traffic {
			if err := arch.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), CheckpointFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		same(fixture, arch, path, 1000, arch.iter)
		for at := range uint8(3) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			damageCheckpoint(t, path, at)
			same(fmt.Sprintf("%s, damage %d", fixture, at), arch, path, 1000, arch.iter)
		}
	}

	law := func(c resumeCase) bool {
		every := 2 + int(c.Every%6)
		arch := &memArchive{}
		path := filepath.Join(t.TempDir(), CheckpointFileName)
		dead, _, _ := newDurable(t, arch, path, every)
		feed := newCutFeeder()
		for _, op := range c.Ops {
			for range 1 + op.Port%8 {
				dead.Handle(feed.clean(uint32(op.Rack%5), 1+int(op.N%8)))
			}
			if op.Op%4 == 0 {
				dead.Handle(feed.batch(op)) // damaged, or dropped by the gate
			}
		}
		failAt, noSkip := 0, false
		switch c.Kind % resumeKinds {
		case resumeLegacyJSON:
			if st, ok, err := LoadCheckpoint(path); err != nil {
				t.Fatal(err)
			} else if ok {
				if err := refSaveCheckpointJSON(path, st); err != nil {
					t.Fatal(err)
				}
			}
		case resumeMissing:
			os.Remove(path)
		case resumeShortfall:
			st, _, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if mark := int(st.ArchivedBatches); mark > 0 {
				arch.batches = arch.batches[:mark-1-int(c.At)%mark]
			}
		case resumeIterFails:
			failAt = 1 + int(c.At)%(every+2)
		case resumeNoSkip:
			noSkip = true
		case resumeCorrupt:
			if _, err := os.Stat(path); err == nil {
				damageCheckpoint(t, path, c.At)
			}
		case resumeNoPath:
			path = ""
		}
		return same(fmt.Sprintf("kind %d, %d batches, every %d", c.Kind%resumeKinds, len(c.Ops), every),
			arch, path, every, tailIter(arch, failAt, noSkip))
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
