package collector_test

// Shard-kill/resume soak for the fleet collection plane, reusing the
// crash fault kinds from the durability work (internal/fault): seeded
// schedules of process kills, torn archive writes and silent short
// writes strike individual shards mid-campaign while the surviving
// racks keep delivering concurrently; every victim resurrects from its
// archive + checkpoint, the agents re-deliver their spool horizon, and
// the aggregator's fleet state must come out byte-identical to a
// single uninterrupted collector that ingested everything. Run under
// -race this also exercises concurrent Handle/Publish/Offer across the
// shard boundary.

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/fault"
	"mburst/internal/rng"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

const (
	fleetCrashRacks    = 8
	fleetCrashShards   = 3
	fleetCrashBatches  = 24
	fleetCrashPerBatch = 6
	fleetCrashSpacing  = 25 * simclock.Microsecond
	fleetCrashWindow   = fleetCrashBatches * fleetCrashPerBatch * fleetCrashSpacing
)

// fleetCrashValues precomputes each rack's cumulative byte counter:
// alternating hot and idle stretches, phase-shifted per rack so shards
// see distinct traffic.
func fleetCrashValues() [][]uint64 {
	vals := make([][]uint64, fleetCrashRacks)
	for r := range vals {
		n := fleetCrashBatches * fleetCrashPerBatch
		v := make([]uint64, n)
		var acc uint64
		for s := 0; s < n; s++ {
			rate := uint64(3125)
			if ((s+r)/5)%2 == 1 {
				rate = 29687
			}
			acc += rate
			v[s] = acc
		}
		vals[r] = v
	}
	return vals
}

// fleetCrashBatch builds a fresh batch for rack r at index i; callers
// never share batch memory across deliveries.
func fleetCrashBatch(vals [][]uint64, r uint32, i int) *wire.Batch {
	b := &wire.Batch{Rack: r, Epoch: 1}
	for j := 0; j < fleetCrashPerBatch; j++ {
		s := i*fleetCrashPerBatch + j
		b.Samples = append(b.Samples, wire.Sample{
			Time: simclock.Epoch.Add(simclock.Duration(s) * fleetCrashSpacing),
			Port: uint16(1 + r%2), Dir: asic.TX, Kind: asic.KindBytes,
			Value: vals[r][s],
		})
	}
	return b
}

func fleetCrashFigures(t *testing.T) *collector.LiveFigures {
	t.Helper()
	lf, err := collector.NewLiveFigures(collector.LiveFiguresConfig{
		SpeedOf:  func(uint32, uint16) uint64 { return 10_000_000_000 },
		IsUplink: func(_ uint32, port uint16) bool { return port == 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return lf
}

// newDurableShard builds one durable shard incarnation over dir.
func newDurableShard(t *testing.T, pl *shard.Placement, id int, arch *trace.ArchiveWriter, dir string) *collector.Shard {
	t.Helper()
	s, err := collector.NewShard(collector.ShardConfig{
		ID:             id,
		Placement:      pl,
		Figures:        fleetCrashFigures(t),
		Stats:          &collector.IngestStats{},
		Archive:        arch,
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		Every:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fleetCrashEvent is one scheduled strike against a shard.
type fleetCrashEvent struct {
	kind fault.Kind
	frac float64
}

// fleetCrashEvents maps a generated schedule's crash faults onto
// shards round-robin, at most one strike per shard per run. A schedule
// with no crash faults degenerates to a plain kill of shard 0 so every
// seed exercises resume.
func fleetCrashEvents(s fault.Schedule) map[int]fleetCrashEvent {
	events := make(map[int]fleetCrashEvent)
	n := 0
	for _, f := range s.Faults {
		switch f.Kind {
		case fault.KindCollectorKill, fault.KindTornWrite, fault.KindShortWrite:
			sh := n % fleetCrashShards
			n++
			if _, dup := events[sh]; !dup {
				events[sh] = fleetCrashEvent{kind: f.Kind, frac: f.Factor}
			}
		}
	}
	if len(events) == 0 {
		events[0] = fleetCrashEvent{kind: fault.KindCollectorKill}
	}
	return events
}

func TestShardKillResumeFleetExact(t *testing.T) {
	const seeds = 4
	const half = fleetCrashBatches / 2

	vals := fleetCrashValues()
	pl, err := shard.Uniform(fleetCrashShards, 0xfee7)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([][]uint32, fleetCrashShards)
	for r := uint32(0); r < fleetCrashRacks; r++ {
		sh := pl.ShardOf(r)
		owned[sh] = append(owned[sh], r)
	}

	// One uninterrupted oracle serves every schedule: a single volatile
	// collector pipeline fed each rack's full stream.
	oracle, err := collector.NewShard(collector.ShardConfig{
		Figures: fleetCrashFigures(t),
		Stats:   &collector.IngestStats{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := uint32(0); r < fleetCrashRacks; r++ {
		for i := 0; i < fleetCrashBatches; i++ {
			oracle.Handle(fleetCrashBatch(vals, r, i))
		}
	}
	want := oracle.Publish()

	for seed := uint64(0); seed < seeds; seed++ {
		sched := fault.Generate(rng.New(seed).Split("fleetcrash"), fault.CrashMix(), fleetCrashWindow)
		events := fleetCrashEvents(sched)

		agg, err := collector.NewAggregator(collector.AggregatorConfig{Shards: fleetCrashShards})
		if err != nil {
			t.Fatal(err)
		}

		dirs := make([]string, fleetCrashShards)
		chaos := make([]*fault.WriteChaos, fleetCrashShards)
		cfgs := make([]trace.ArchiveConfig, fleetCrashShards)
		shards := make([]*collector.Shard, fleetCrashShards)
		for k := 0; k < fleetCrashShards; k++ {
			dirs[k] = filepath.Join(t.TempDir(), "shard")
			chaos[k] = fault.NewWriteChaos(nil)
			cfgs[k] = trace.ArchiveConfig{SyncEvery: 2, Open: chaos[k].Wrap(nil)}
			arch, err := trace.CreateArchive(dirs[k], cfgs[k])
			if err != nil {
				t.Fatal(err)
			}
			shards[k] = newDurableShard(t, &pl, k, arch, dirs[k])
		}

		// deliver fans racks out concurrently, one goroutine per rack,
		// each publishing shard cuts into the aggregator along the way.
		lastSeq := make([]uint64, fleetCrashShards)
		deliver := func(lo, hi int) {
			var wg sync.WaitGroup
			for r := uint32(0); r < fleetCrashRacks; r++ {
				wg.Add(1)
				go func(r uint32) {
					defer wg.Done()
					sh := shards[pl.ShardOf(r)]
					for i := lo; i < hi; i++ {
						sh.Handle(fleetCrashBatch(vals, r, i))
					}
				}(r)
			}
			for k := 0; k < fleetCrashShards; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for p := 0; p < 3; p++ {
						u := shards[k].Publish()
						lastSeq[k] = u.Seq
						agg.Offer(u)
					}
				}(k)
			}
			wg.Wait()
		}

		deliver(0, half)

		// Strike: each scheduled fault kills one shard mid-campaign. The
		// victim resurrects from disk, and the agents re-deliver their
		// spool horizon; the restored epoch gate dedups the overlap.
		for k := 0; k < fleetCrashShards; k++ {
			ev, hit := events[k]
			if !hit {
				continue
			}
			switch ev.kind {
			case fault.KindTornWrite:
				if len(owned[k]) == 0 {
					break
				}
				chaos[k].ArmTorn(ev.frac)
				shards[k].Handle(fleetCrashBatch(vals, owned[k][0], half))
				if shards[k].Err() == nil {
					t.Fatalf("seed %d (%s): torn write on shard %d did not latch the pipeline", seed, sched, k)
				}
			case fault.KindShortWrite:
				if len(owned[k]) == 0 {
					break
				}
				chaos[k].ArmShort(ev.frac)
				shards[k].Handle(fleetCrashBatch(vals, owned[k][0], half))
				if shards[k].Err() != nil {
					t.Fatalf("seed %d (%s): short write on shard %d surfaced an error — the lie must be silent", seed, sched, k)
				}
			}
			// Kill: abandon the incarnation (no Close, no final sync) and
			// resurrect from the recovered archive tail.
			arch2, _, err := trace.ResumeArchive(dirs[k], cfgs[k])
			if err != nil {
				t.Fatalf("seed %d (%s): resume archive for shard %d: %v", seed, sched, k, err)
			}
			s2 := newDurableShard(t, &pl, k, arch2, dirs[k])
			dir := dirs[k]
			if _, err := s2.Resume(func(fn func(*wire.Batch) error) error {
				return trace.IterArchive(dir, fn)
			}); err != nil {
				t.Fatalf("seed %d (%s): resume shard %d: %v", seed, sched, k, err)
			}
			s2.ResumeSeq(lastSeq[k])
			shards[k] = s2
			for _, r := range owned[k] {
				for i := 0; i <= half; i++ {
					s2.Handle(fleetCrashBatch(vals, r, i))
				}
			}
		}

		deliver(half, fleetCrashBatches)

		// Final cuts must land: the blocking path, then a fence so the
		// merge sees them.
		for k := 0; k < fleetCrashShards; k++ {
			if err := shards[k].Err(); err != nil {
				t.Fatalf("seed %d (%s): shard %d latched %v", seed, sched, k, err)
			}
			u := shards[k].Publish()
			agg.Deliver(u)
		}
		st, err := func() (collector.FleetState, error) {
			defer agg.Close()
			agg.Flush()
			return agg.FleetState()
		}()
		if err != nil {
			t.Fatalf("seed %d (%s): fleet merge: %v", seed, sched, err)
		}

		if !reflect.DeepEqual(st.Figures, want.Figures) {
			t.Errorf("seed %d (%s): fleet figures diverge from the uninterrupted collector", seed, sched)
		}
		if !reflect.DeepEqual(st.Ingest, want.Ingest) {
			t.Errorf("seed %d (%s): fleet ingest diverges: %+v vs %+v", seed, sched, st.Ingest, want.Ingest)
		}
		if st.Reporting != fleetCrashShards {
			t.Errorf("seed %d (%s): %d of %d shards reporting", seed, sched, st.Reporting, fleetCrashShards)
		}
	}
}

// TestResumeShortfallEndsTheLog: a short write lands in a segment, a
// checkpoint vouches for it (and so seals the segment), the next segment
// takes two more batches, and the shard is killed. Recovery keeps the log
// as its decodable prefix — the later segment goes, since a resume
// replays by position — so Resume reports exactly the vouched batches the
// disk lost as Shortfall and replays nothing.
func TestResumeShortfallEndsTheLog(t *testing.T) {
	vals := fleetCrashValues()
	dir := filepath.Join(t.TempDir(), "shard")
	chaos := fault.NewWriteChaos(nil)
	cfg := trace.ArchiveConfig{Open: chaos.Wrap(nil)}
	arch, err := trace.CreateArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newDurableShard(t, nil, 0, arch, dir) // a checkpoint every 4 batches
	for i := 0; i < 10; i++ {
		if i == 6 {
			chaos.ArmShort(0.5) // in segment 2: batches 4-7, sealed by the checkpoint at 8
		}
		s.Handle(fleetCrashBatch(vals, 0, i))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	arch2, rec, err := trace.ResumeArchive(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.RemovedSegments, []string{"seg_000003.open"}) || rec.Batches != 6 {
		t.Fatalf("recovery %+v, want 6 batches kept and the segment after the torn one removed", rec)
	}
	s2 := newDurableShard(t, nil, 0, arch2, dir)
	rep, err := s2.Resume(func(fn func(*wire.Batch) error) error {
		return trace.IterArchive(dir, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointBatches != 8 || rep.ArchiveBatches != 6 || rep.Shortfall != 2 || rep.Replayed != 0 {
		t.Errorf("resume %+v, want the checkpoint's 8 batches over 6 archived: shortfall 2, nothing replayed", rep)
	}
}
