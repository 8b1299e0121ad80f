package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mburst/internal/collector"
	"mburst/internal/fault"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// fleetTestConfig is a small-but-real fleet: enough racks to spread
// over several shards, short windows so the suite stays fast.
func fleetTestConfig(racks int) Config {
	return Config{
		Racks:     racks,
		Windows:   1,
		WindowDur: 2 * simclock.Millisecond,
		Warmup:    500 * simclock.Microsecond,
		Servers:   8,
		Seed:      7,
	}
}

func TestFleetMatchesOracleAcrossShardCounts(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5} {
		e, err := NewExperiment(fleetTestConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunFleet(context.Background(), FleetConfig{
			App:           workload.Web,
			Shards:        shards,
			PlacementSeed: 42,
			BatchSize:     16,
			PublishEvery:  4,
			Oracle:        true,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !res.ByteExact {
			t.Errorf("shards=%d: fleet state diverges from the single-collector oracle", shards)
		}
		if res.Fleet.Reporting != shards {
			t.Errorf("shards=%d: %d reporting", shards, res.Fleet.Reporting)
		}
		if res.Batches == 0 || res.Samples == 0 || res.WireBytes == 0 {
			t.Errorf("shards=%d: empty campaign: %+v", shards, res)
		}
		if res.Samples != res.Fleet.Ingest.Samples {
			t.Errorf("shards=%d: delivered %d samples, fleet ingested %d",
				shards, res.Samples, res.Fleet.Ingest.Samples)
		}
	}
}

// fleetFiles lists every file under a fleet directory, slash-separated
// and relative to it, in lexical order.
func fleetFiles(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		names = append(names, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// assertFleetStores holds a durable fleet directory to its shape:
// campaign.json, and per placement shard an archive.json, a
// checkpoint.mbc and sealed seg_NNNNNN.mbw segments — nothing else — with
// the checkpoint's archived-batches mark on a boundary of its manifest.
func assertFleetStores(t *testing.T, dir string, pl shard.Placement) {
	t.Helper()
	segs := make(map[string]int)
	for _, name := range fleetFiles(t, dir) {
		if name == trace.MetaFileName {
			continue
		}
		store, file := path.Split(name)
		var seq int
		switch _, err := fmt.Sscanf(file, "seg_%06d.mbw", &seq); {
		case err == nil && file == fmt.Sprintf("seg_%06d.mbw", seq):
			segs[store]++
		case file == trace.ArchiveManifestName, file == collector.CheckpointFileName:
		default:
			t.Errorf("fleet directory holds %s, which no store has", name)
		}
	}
	if len(segs) != pl.NumShards() {
		t.Errorf("%d stores hold segments, the placement has %d shards", len(segs), pl.NumShards())
	}
	for k := 0; k < pl.NumShards(); k++ {
		store := filepath.Join(dir, pl.Name(k))
		if segs[pl.Name(k)+"/"] == 0 {
			t.Errorf("shard %d's store holds no sealed segment", k)
		}
		data, err := os.ReadFile(filepath.Join(store, trace.ArchiveManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var man trace.ArchiveManifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatal(err)
		}
		st, ok, err := collector.LoadCheckpoint(filepath.Join(store, collector.CheckpointFileName))
		if err != nil || !ok {
			t.Fatalf("shard %d checkpoint: ok=%v err=%v", k, ok, err)
		}
		var end uint64
		boundary := st.ArchivedBatches == 0
		for _, s := range man.Segments {
			end += s.Batches
			boundary = boundary || end == st.ArchivedBatches
		}
		if !boundary {
			t.Errorf("shard %d: checkpoint mark %d is no segment boundary of %+v", k, st.ArchivedBatches, man.Segments)
		}
	}
}

// mergeShardCheckpoints loads the checkpoint in each placement shard's
// directory and merges them — the fleet-wide state a durable fleet
// directory holds, which nothing but its shards records.
func mergeShardCheckpoints(t *testing.T, dir string, pl shard.Placement) (collector.FiguresState, collector.Snapshot) {
	t.Helper()
	figs := make([]collector.FiguresState, pl.NumShards())
	snaps := make([]collector.Snapshot, pl.NumShards())
	for k := range figs {
		st, ok, err := collector.LoadCheckpoint(filepath.Join(dir, pl.Name(k), collector.CheckpointFileName))
		if err != nil || !ok {
			t.Fatalf("shard %d checkpoint: ok=%v err=%v", k, ok, err)
		}
		figs[k], snaps[k] = *st.Figures, *st.Ingest
	}
	merged, err := collector.MergeFiguresStates(figs...)
	if err != nil {
		t.Fatal(err)
	}
	return merged, collector.MergeSnapshots(snaps...)
}

func TestFleetWorkerCountInvariance(t *testing.T) {
	run := func(workers int) (*FleetResult, []string) {
		cfg := fleetTestConfig(6)
		cfg.Workers = workers
		e, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "fleet")
		res, err := e.RunFleet(context.Background(), FleetConfig{
			App: workload.Cache, Shards: 3, PlacementSeed: 1, BatchSize: 32, Dir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, fleetFiles(t, dir)
	}
	serial, serialFiles := run(1)
	parallel, parallelFiles := run(8)
	if !reflect.DeepEqual(serialFiles, parallelFiles) {
		t.Errorf("worker counts 1 vs 8: fleet directories hold different files:\n%v\n%v", serialFiles, parallelFiles)
	}
	if serial.Fleet.Figures.Samples == 0 {
		t.Fatal("empty fleet figures")
	}
	if !reflect.DeepEqual(serial.Fleet.Figures, parallel.Fleet.Figures) ||
		!reflect.DeepEqual(serial.Fleet.Ingest, parallel.Fleet.Ingest) ||
		!reflect.DeepEqual(serial.Figures, parallel.Figures) {
		t.Error("worker counts 1 vs 8: fleet states diverge")
	}
	if serial.WireBytes != parallel.WireBytes || serial.Batches != parallel.Batches {
		t.Errorf("worker counts 1 vs 8: totals diverge: %d/%d bytes, %d/%d batches",
			serial.WireBytes, parallel.WireBytes, serial.Batches, parallel.Batches)
	}
}

func TestFleetDurableFaultsByteExact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	sched, err := fault.ParseSchedule("kill@0.5ms,torn@1ms:x0.5,shortw@1.5ms")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExperiment(fleetTestConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunFleet(context.Background(), FleetConfig{
		App:             workload.Hadoop,
		Shards:          3,
		PlacementSeed:   9,
		BatchSize:       8,
		PublishEvery:    4,
		Dir:             dir,
		CheckpointEvery: 4,
		Oracle:          true,
		Faults:          sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills != 3 || res.Resumes != 3 {
		t.Errorf("kills=%d resumes=%d, want 3 each (%s)", res.Kills, res.Resumes, sched)
	}
	if !res.ByteExact {
		t.Error("crash schedule broke fleet/oracle byte-exactness")
	}

	// The fleet directory is campaign.json plus one store per shard and
	// nothing else: no file restates what those hold. A store is its
	// manifest, its checkpoint and sealed segments, and the checkpoint's
	// mark is a segment boundary: a checkpoint ends the open segment.
	assertFleetStores(t, dir, res.Placement)
	// It round-trips: the placement-stamped campaign meta resolves the
	// shards, their checkpoints merge to the state the aggregator
	// reported, and the merged archive stream accounts for every admitted
	// batch (vouched short-write lies excepted, batch-for-batch, as
	// Shortfall).
	meta, ok, err := trace.FleetMeta(dir)
	if err != nil || !ok {
		t.Fatalf("fleet meta: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(*meta.Placement, res.Placement) || meta.Windows != res.Racks {
		t.Errorf("campaign.json says %d racks under %+v, campaign ran %d under %+v",
			meta.Windows, meta.Placement, res.Racks, res.Placement)
	}
	figs, ingest := mergeShardCheckpoints(t, dir, res.Placement)
	if !reflect.DeepEqual(figs, res.Fleet.Figures) || !reflect.DeepEqual(ingest, res.Fleet.Ingest) {
		t.Error("the shard checkpoints do not merge to the fleet state the campaign reported")
	}
	var archived uint64
	if err := trace.IterFleet(dir, func(b *wire.Batch) error {
		archived++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Redelivered overlap is deduped by the gates, so the archives hold
	// each admitted batch exactly once, minus vouched short-write lies.
	if archived+res.Shortfall != res.Batches {
		t.Errorf("archives hold %d batches + %d shortfall, fleet admitted %d",
			archived, res.Shortfall, res.Batches)
	}
}

// TestFleetThousandRacksByteExact runs the reference fleet — 1000 racks
// over 8 durable shards, oracle on. Its figures must equal the
// single-collector oracle's, the shard checkpoints must merge to the
// fleet's ingest, and on amd64 (see wantPinned) the campaign's counts are
// pinned.
func TestFleetThousandRacksByteExact(t *testing.T) {
	e, err := NewExperiment(fleetTestConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fleet")
	res, err := e.RunFleet(context.Background(), FleetConfig{
		App:           workload.Web,
		Shards:        8,
		PlacementSeed: 1,
		Dir:           dir,
		Oracle:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1000 racks / 8 shards: %d batches, %d samples, %d wire bytes", res.Batches, res.Samples, res.WireBytes)
	if !res.ByteExact {
		t.Error("1000-rack fleet diverges from the single-collector oracle")
	}
	if _, ingest := mergeShardCheckpoints(t, dir, res.Placement); !reflect.DeepEqual(ingest, res.Fleet.Ingest) {
		t.Errorf("the shard checkpoints merge to ingest %+v, the fleet reported %+v", ingest, res.Fleet.Ingest)
	}
	if runtime.GOARCH == pinnedArch && (res.Batches != 1_000 || res.Samples != 77_776 || res.WireBytes != 262_417) {
		t.Errorf("fleet moved %d batches, %d samples, %d wire bytes, want 1,000, 77,776, 262,417",
			res.Batches, res.Samples, res.WireBytes)
	}
}

// TestIterFleetAllocatesOnlyItsShards reads the reference 1000-rack,
// 8-shard durable fleet directory. trace.IterFleet may allocate at most
// 4 KiB more than one trace.FleetMeta plus trace.IterArchive over each
// shard directory: a fleet reader holds one batch, never the fleet. A
// reader that buffers the batches to reorder them allocates about ten
// times that. Not parallel: TotalAlloc counts every goroutine's
// allocations.
func TestIterFleetAllocatesOnlyItsShards(t *testing.T) {
	e, err := NewExperiment(fleetTestConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fleet")
	res, err := e.RunFleet(context.Background(), FleetConfig{
		App: workload.Web, Shards: 8, PlacementSeed: 1, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(read func() int) (bytes uint64, batches int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		batches = read()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, batches
	}
	fleet := func() int {
		n := 0
		if err := trace.IterFleet(dir, func(*wire.Batch) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	shards := func() int {
		n := 0
		if _, _, err := trace.FleetMeta(dir); err != nil {
			t.Fatal(err)
		}
		for _, name := range res.Placement.Shards {
			if err := trace.IterArchive(filepath.Join(dir, name), func(*wire.Batch) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	fleet() // warm the codec pools, so neither side below pays for them
	got, n := allocated(fleet)
	bound, m := allocated(shards)
	t.Logf("IterFleet: %d B for %d batches; the shards through IterArchive + FleetMeta: %d B", got, n, bound)
	if n != m || uint64(n) != res.Batches {
		t.Fatalf("IterFleet read %d batches, the shards %d, the fleet admitted %d", n, m, res.Batches)
	}
	if got > bound+4<<10 {
		t.Errorf("IterFleet allocated %d B, over its shards' %d B + 4 KiB", got, bound)
	}
}

func TestFleetFaultsRequireDir(t *testing.T) {
	e, err := NewExperiment(fleetTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fault.ParseSchedule("kill@1ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunFleet(context.Background(), FleetConfig{
		App: workload.Web, Shards: 1, Faults: sched,
	}); err == nil {
		t.Fatal("volatile fleet accepted a fault schedule")
	}
}

// TestFleetStrikes holds the strike schedule to its rules: crash faults
// go round-robin over the shards and other kinds take no turn; a shard
// expecting fewer than 2 batches is struck nowhere; a strike lands in
// [1, est−1] of the shard's expected batches; and a shard's strikes
// strictly increase.
func TestFleetStrikes(t *testing.T) {
	const window = 10 * simclock.Millisecond
	ms := simclock.Millisecond
	kill, torn, short := fault.KindCollectorKill, fault.KindTornWrite, fault.KindShortWrite
	sched := fault.Schedule{Faults: []fault.Fault{
		{Kind: kill, At: 0},                       // shard 0: 0 clamps up to 1
		{Kind: fault.KindStuckReads, At: 5 * ms},  // no crash: no turn
		{Kind: torn, At: 5 * ms, Factor: 0.5},     // shard 1 expects 1 batch: none
		{Kind: short, At: window, Factor: 0.25},   // shard 2: 10 clamps down to 9
		{Kind: kill, At: 9 * ms},                  // shard 3: 1.8 truncates to 1
		{Kind: kill, At: 0},                       // shard 0: 1 again, bumped to 2
		{Kind: fault.KindReadLatency, At: 1 * ms}, // no crash: no turn
		{Kind: kill, At: window},                  // shard 1: none
		{Kind: kill, At: 2 * ms},                  // shard 2: 2, bumped past 9 to 10
		{Kind: torn, At: 5 * ms, Factor: 0.75},    // shard 3: 1, bumped to 2
	}}
	got := fleetStrikes(sched, window, []uint64{100, 1, 10, 2})
	want := [][]fleetStrike{
		{{at: 1, kind: kill}, {at: 2, kind: kill}},
		nil,
		{{at: 9, kind: short, frac: 0.25}, {at: 10, kind: kill}},
		{{at: 1, kind: kill}, {at: 2, kind: torn, frac: 0.75}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("strikes\n got %+v\nwant %+v", got, want)
	}
}
