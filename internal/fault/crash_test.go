package fault

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// The collector-crash soak closes the durability loop the ISSUE's
// tentpole promises: seeded schedules of process kills, torn archive
// writes, and fsync lies against the durable collection plane
// (trace archive + checkpoint/restore + epoch-gated retransmission),
// asserting that every crash recovers to byte-exact fleet state — the
// same live figures, ingest counters, and (shortfall aside) the same
// decoded archive stream as a collector that never died.

const (
	crashBatches  = 40
	crashPerBatch = 8
	crashSpacing  = 25 * simclock.Microsecond
	crashBatchDur = crashPerBatch * crashSpacing
)

// crashBatch builds batch i: monotone multi-sample, a cumulative byte
// counter alternating hot and cold stretches.
func crashBatch(i int) *wire.Batch {
	b := &wire.Batch{Rack: 1, Epoch: 1}
	for j := 0; j < crashPerBatch; j++ {
		seq := i*crashPerBatch + j
		frac := 0.1
		if (seq/6)%2 == 1 {
			frac = 0.95
		}
		b.Samples = append(b.Samples, wire.Sample{
			Time: simclock.Epoch.Add(simclock.Duration(seq) * crashSpacing),
			Port: 1, Dir: asic.TX, Kind: asic.KindBytes,
			Value: uint64(seq) * uint64(frac*31250),
		})
	}
	return b
}

// crashPipeline is one collector incarnation over a shared archive dir.
type crashPipeline struct {
	arch    *trace.ArchiveWriter
	ingest  *collector.Shard
	figures *collector.LiveFigures
	stats   *collector.IngestStats
}

func newCrashPipeline(t *testing.T, arch *trace.ArchiveWriter, ckpt string) *crashPipeline {
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
	return &crashPipeline{arch: arch, ingest: ingest, figures: figures, stats: stats}
}

func decodeCrashArchive(t *testing.T, dir string) []wire.Batch {
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

// crashEvent is one scheduled crash, mapped from window offset to the
// batch index at which it strikes.
type crashEvent struct {
	idx  int
	kind Kind
	frac float64
}

// crashPlan maps a generated schedule's crash faults onto batch indices,
// deduplicated and ordered.
func crashPlan(s Schedule) []crashEvent {
	var events []crashEvent
	for _, f := range s.Faults {
		switch f.Kind {
		case KindCollectorKill, KindTornWrite, KindShortWrite:
			idx := int(f.At / crashBatchDur)
			if idx < 1 {
				idx = 1
			}
			if idx > crashBatches-2 {
				idx = crashBatches - 2
			}
			events = append(events, crashEvent{idx: idx, kind: f.Kind, frac: f.Factor})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].idx < events[j].idx })
	out := events[:0]
	for _, e := range events {
		if len(out) > 0 && out[len(out)-1].idx == e.idx {
			continue // two crashes cannot strike the same batch
		}
		out = append(out, e)
	}
	return out
}

// crashReport is the "collector_crash" section of FAULT_soak.json.
type crashReport struct {
	Schedules        int    `json:"schedules"`
	Kills            int    `json:"kills"`
	TornWrites       int    `json:"torn_writes"`
	ShortWrites      int    `json:"short_writes"`
	Resumes          int    `json:"resumes"`
	ReplayedBatches  uint64 `json:"replayed_batches"`
	ShortfallBatches uint64 `json:"shortfall_batches"`
	ByteExact        bool   `json:"byte_exact"`
}

func TestCollectorCrashSoak(t *testing.T) {
	const schedules = 12
	window := crashBatches * crashBatchDur
	cfg := trace.ArchiveConfig{SyncEvery: 2}

	report := crashReport{Schedules: schedules, ByteExact: true}
	exact := func(ok bool, format string, args ...any) {
		if !ok {
			report.ByteExact = false
			t.Errorf(format, args...)
		}
	}

	// One uninterrupted oracle serves every schedule: the crash runs all
	// carry identical traffic.
	oDir := filepath.Join(t.TempDir(), "oracle")
	oArch, err := trace.CreateArchive(oDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newCrashPipeline(t, oArch, filepath.Join(oDir, "checkpoint.json"))
	for i := 0; i < crashBatches; i++ {
		oracle.ingest.Handle(crashBatch(i))
	}
	if err := oracle.ingest.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := oArch.Close(); err != nil {
		t.Fatal(err)
	}
	oracleStream := decodeCrashArchive(t, oDir)

	for seed := uint64(0); seed < schedules; seed++ {
		sched := Generate(rng.New(seed).Split("crash"), CrashMix(), window)
		events := crashPlan(sched)

		dir := filepath.Join(t.TempDir(), "crash")
		ckpt := filepath.Join(dir, "checkpoint.json")
		chaos := NewWriteChaos(nil)
		ccfg := cfg
		ccfg.Open = chaos.Wrap(ccfg.Open)

		arch, err := trace.CreateArchive(dir, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		p := newCrashPipeline(t, arch, ckpt)
		var shortfall uint64
		next := 0
		for _, ev := range events {
			for ; next < ev.idx; next++ {
				p.ingest.Handle(crashBatch(next))
			}
			switch ev.kind {
			case KindCollectorKill:
				report.Kills++
				// The process dies between writes; the open segment holds
				// every batch handled so far.
			case KindTornWrite:
				report.TornWrites++
				chaos.ArmTorn(ev.frac)
				p.ingest.Handle(crashBatch(next))
				next++
				if p.ingest.Err() == nil {
					t.Fatalf("seed %d (%s): torn write at batch %d did not latch the pipeline",
						seed, sched, ev.idx)
				}
			case KindShortWrite:
				report.ShortWrites++
				chaos.ArmShort(ev.frac)
				p.ingest.Handle(crashBatch(next))
				next++
				if p.ingest.Err() != nil {
					t.Fatalf("seed %d (%s): short write at batch %d surfaced an error — the lie must be silent",
						seed, sched, ev.idx)
				}
				if seed%2 == 0 {
					// Half the lies get vouched for by a checkpoint before
					// the crash — the only case that must surface as a
					// resume Shortfall instead of being healed by replay
					// plus retransmission.
					if err := p.ingest.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Kill: abandon the incarnation (no Close, no final sync) and
			// resurrect from disk.
			arch2, _, err := trace.ResumeArchive(dir, ccfg)
			if err != nil {
				t.Fatalf("seed %d (%s): resume archive after %s@%d: %v", seed, sched, ev.kind, ev.idx, err)
			}
			p = newCrashPipeline(t, arch2, ckpt)
			rep, err := p.ingest.Resume(func(fn func(*wire.Batch) error) error {
				return trace.IterArchive(dir, fn)
			})
			if err != nil {
				t.Fatalf("seed %d (%s): resume after %s@%d: %v", seed, sched, ev.kind, ev.idx, err)
			}
			report.Resumes++
			report.ReplayedBatches += rep.Replayed
			shortfall += rep.Shortfall
			// The agent cannot know what the dead collector had archived:
			// it retransmits from its spool horizon, overlapping the
			// archive; the restored gate dedups the overlap.
			next = ev.idx - 3
			if next < 0 {
				next = 0
			}
		}
		for ; next < crashBatches; next++ {
			p.ingest.Handle(crashBatch(next))
		}
		if err := p.ingest.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := p.arch.Close(); err != nil {
			t.Fatal(err)
		}
		report.ShortfallBatches += shortfall

		// Byte-exact fleet state, crash schedule notwithstanding.
		exact(reflect.DeepEqual(p.figures.State(), oracle.figures.State()),
			"seed %d (%s): live figures diverge from the uninterrupted run", seed, sched)
		exact(reflect.DeepEqual(p.stats.Snapshot(), oracle.stats.Snapshot()),
			"seed %d (%s): ingest stats diverge: %+v vs %+v",
			seed, sched, p.stats.Snapshot(), oracle.stats.Snapshot())
		stream := decodeCrashArchive(t, dir)
		// A short write the checkpoint vouched for is the one permissible
		// archive gap, and it must be accounted batch-for-batch as
		// Shortfall; absent the lie, the decoded streams are identical.
		exact(uint64(len(stream))+shortfall == uint64(len(oracleStream)),
			"seed %d (%s): archive holds %d batches + %d shortfall, oracle %d",
			seed, sched, len(stream), shortfall, len(oracleStream))
		if shortfall == 0 {
			exact(reflect.DeepEqual(stream, oracleStream),
				"seed %d (%s): archive streams diverge", seed, sched)
		}
	}

	mergeSoakArtifact(t, func(r *soakReport) { r.CollectorCrash = &report })
}

// memFile is a segment file in memory that counts its syncs and closes.
type memFile struct {
	bytes.Buffer
	syncs, closes int
}

func (f *memFile) Sync() error  { f.syncs++; return nil }
func (f *memFile) Close() error { f.closes++; return nil }

func TestWriteChaosTornAndShort(t *testing.T) {
	var buf memFile
	chaos := NewWriteChaos(nil)
	w, err := chaos.Wrap(func(string) (io.WriteCloser, error) { return &buf, nil })("seg")
	if err != nil {
		t.Fatal(err)
	}

	payload := []byte("0123456789")
	chaos.ArmTorn(0.5)
	n, err := w.Write(payload)
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = (%d, %v), want (5, ErrInjected)", n, err)
	}
	if buf.String() != "01234" {
		t.Fatalf("torn write persisted %q, want the 0.5 prefix", buf.String())
	}

	buf.Reset()
	chaos.ArmShort(0.3)
	n, err = w.Write(payload)
	if n != len(payload) || err != nil {
		t.Fatalf("short write = (%d, %v), want full success reported", n, err)
	}
	if buf.String() != "012" {
		t.Fatalf("short write persisted %q, want the 0.3 prefix", buf.String())
	}

	// Both arms are one-shot: the next write is clean.
	buf.Reset()
	if n, err := w.Write(payload); n != len(payload) || err != nil || buf.String() != string(payload) {
		t.Fatalf("unarmed write = (%d, %v) persisting %q", n, err, buf.String())
	}

	// Sync and Close reach the file: the archive fsyncs through them.
	if err := w.(interface{ Sync() error }).Sync(); err != nil || buf.syncs != 1 {
		t.Fatalf("Sync = %v reaching the file %d times, want once", err, buf.syncs)
	}
	if err := w.Close(); err != nil || buf.closes != 1 {
		t.Fatalf("Close = %v reaching the file %d times, want once", err, buf.closes)
	}
}

func TestParseScheduleCrashKinds(t *testing.T) {
	s, err := ParseSchedule("kill@1ms,torn@2ms:x0.25,shortw@3ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: KindCollectorKill, At: simclock.Millisecond},
		{Kind: KindTornWrite, At: 2 * simclock.Millisecond, Factor: 0.25},
		{Kind: KindShortWrite, At: 3 * simclock.Millisecond, Factor: DefaultPersistFrac},
	}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Fatalf("parsed %+v, want %+v", s.Faults, want)
	}
	rt, err := ParseSchedule(s.String())
	if err != nil || !reflect.DeepEqual(rt, s) {
		t.Fatalf("schedule %q did not round-trip: %+v, %v", s, rt, err)
	}
	if _, err := ParseSchedule("torn@1ms:x1.5"); err == nil {
		t.Error("persisted fraction > 1 accepted")
	}
	if _, err := ParseSchedule("kill@1ms:x2"); err == nil {
		t.Error("kill parameter accepted")
	}
}
