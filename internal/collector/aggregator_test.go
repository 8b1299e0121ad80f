package collector

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// fleetBatches synthesizes one byte-counter stream per rack — monotone
// cumulative counters with alternating hot and idle stretches, chunked
// into wire batches — keyed by rack so tests can deliver each rack's
// stream in order while racks interleave freely.
func fleetBatches(racks int, seed uint64, ticks, perBatch int) map[uint32][]*wire.Batch {
	out := make(map[uint32][]*wire.Batch, racks)
	for r := 0; r < racks; r++ {
		rack := uint32(r)
		src := rng.New(seed).Split(fmt.Sprintf("rack/%d", rack))
		var cum uint64
		var cur *wire.Batch
		for i := 0; i < ticks; i++ {
			if cur == nil {
				cur = &wire.Batch{Rack: rack, Epoch: 1}
			}
			util := 0.05 + 0.1*src.Float64()
			if (i/5)%2 == 1 {
				util = 0.7 + 0.3*src.Float64()
			}
			cum += uint64(util * float64(figSpeed) / 8 * 25e-6)
			cur.Samples = append(cur.Samples, wire.Sample{
				Time:  simclock.Epoch.Add(simclock.Micros(int64(i) * 25)),
				Port:  uint16(1 + r%2),
				Dir:   asic.TX,
				Kind:  asic.KindBytes,
				Value: cum,
			})
			if len(cur.Samples) >= perBatch {
				out[rack] = append(out[rack], cur)
				cur = nil
			}
		}
		if cur != nil {
			out[rack] = append(out[rack], cur)
		}
	}
	return out
}

func fleetFiguresConfig() LiveFiguresConfig {
	return LiveFiguresConfig{
		SpeedOf:  func(uint32, uint16) uint64 { return figSpeed },
		IsUplink: func(_ uint32, port uint16) bool { return port == 2 },
	}
}

// newVolatileShard builds one volatile shard over the placement.
func newVolatileShard(t *testing.T, pl shard.Placement, id int) *Shard {
	t.Helper()
	fig, err := NewLiveFigures(fleetFiguresConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShard(ShardConfig{
		ID: id, Placement: &pl, Figures: fig, Stats: &IngestStats{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedFleetMatchesOracle is the in-package half of the tentpole
// equivalence claim: for several shard counts, racks delivered
// concurrently through placed shards and merged by the aggregator yield
// figures and ingest totals bit-identical to one collector that saw
// every batch.
func TestShardedFleetMatchesOracle(t *testing.T) {
	const racks = 12
	streams := fleetBatches(racks, 77, 120, 16)

	// Oracle: a single unsharded pipeline fed everything.
	oracleFig, err := NewLiveFigures(fleetFiguresConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracleStats := &IngestStats{}
	oracle, err := NewShard(ShardConfig{Figures: oracleFig, Stats: oracleStats})
	if err != nil {
		t.Fatal(err)
	}
	for _, batches := range streams {
		for _, b := range batches {
			oracle.Handle(b)
		}
	}
	wantFigures := oracleFig.State()
	wantIngest := oracleStats.Snapshot()
	wantSnap := oracleFig.Snapshot()

	for _, nShards := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			pl, err := shard.Uniform(nShards, 42)
			if err != nil {
				t.Fatal(err)
			}
			shards := make([]*Shard, nShards)
			for i := range shards {
				shards[i] = newVolatileShard(t, pl, i)
			}
			agg, err := NewAggregator(AggregatorConfig{
				Shards: nShards, Figures: fleetFiguresConfig(),
			})
			if err != nil {
				t.Fatal(err)
			}

			// One goroutine per rack preserves per-rack order while racks
			// interleave arbitrarily — the fan-in shape a fleet has.
			var wg sync.WaitGroup
			for rack, batches := range streams {
				wg.Add(1)
				go func(rack uint32, batches []*wire.Batch) {
					defer wg.Done()
					target := shards[pl.ShardOf(rack)]
					for _, b := range batches {
						target.Handle(b)
					}
				}(rack, batches)
			}
			wg.Wait()
			for _, s := range shards {
				agg.Deliver(s.Publish())
			}
			agg.Flush()

			st, err := agg.FleetState()
			if err != nil {
				t.Fatal(err)
			}
			if st.Reporting != nShards {
				t.Errorf("Reporting = %d, want %d", st.Reporting, nShards)
			}
			if !reflect.DeepEqual(st.Figures, wantFigures) {
				t.Error("fleet figures state differs from single-collector oracle")
			}
			if !reflect.DeepEqual(st.Ingest, wantIngest) {
				t.Errorf("fleet ingest %+v differs from oracle %+v", st.Ingest, wantIngest)
			}
			snap, err := agg.FleetFigures()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, wantSnap) {
				t.Error("rendered fleet snapshot differs from oracle snapshot")
			}
			agg.Close()
		})
	}
}

// TestShardMisroutedDrop pins the ownership guard: a shard drops and
// counts batches the placement maps elsewhere, keeping its accumulators
// clean for the disjoint fleet merge.
func TestShardMisroutedDrop(t *testing.T) {
	pl, err := shard.Uniform(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	var rackMine, rackOther uint32
	for r := uint32(0); r < 100; r++ {
		if pl.ShardOf(r) == 0 {
			rackMine = r
		} else {
			rackOther = r
		}
	}
	reg := obs.NewRegistry()
	fig, err := NewLiveFigures(fleetFiguresConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewShardMetrics(reg)
	s, err := NewShard(ShardConfig{ID: 0, Placement: &pl, Figures: fig, Stats: &IngestStats{}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rack uint32) *wire.Batch {
		return &wire.Batch{Rack: rack, Epoch: 1, Samples: []wire.Sample{{
			Time: simclock.Epoch.Add(simclock.Micros(25)), Port: 1, Dir: asic.TX,
			Kind: asic.KindBytes, Value: 100,
		}}}
	}
	s.Handle(mk(rackMine))
	s.Handle(mk(rackOther))
	if got := m.Misrouted.Value(); got != 1 {
		t.Errorf("Misrouted = %d, want 1", got)
	}
	if st := fig.State(); len(st.Series) != 1 || st.Series[0].Rack != rackMine {
		t.Errorf("shard accumulated a misrouted rack: %+v", st.Series)
	}

	if _, err := NewShard(ShardConfig{ID: 9, Placement: &pl, Stats: &IngestStats{}}); err == nil {
		t.Error("out-of-placement shard id must be rejected")
	}
}

// TestAggregatorBackpressureExactness pins the drop/deferral accounting
// to exact counts: with the drain stalled, the queue accepts exactly its
// depth, Offer drops everything beyond it, and Deliver defers once.
func TestAggregatorBackpressureExactness(t *testing.T) {
	const depth = 4
	reg := obs.NewRegistry()
	m := NewAggregatorMetrics(reg)
	agg, err := NewAggregator(AggregatorConfig{Shards: 1, QueueDepth: depth, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	agg.setHook(func(ShardUpdate) {
		entered <- struct{}{}
		<-release
	})

	seq := uint64(0)
	next := func() ShardUpdate { seq++; return ShardUpdate{Shard: 0, Seq: seq} }

	// First update is dequeued and stalls in the hook; the queue behind
	// it is empty again.
	if !agg.Offer(next()) {
		t.Fatal("first offer rejected")
	}
	<-entered

	for i := 0; i < depth; i++ {
		if !agg.Offer(next()) {
			t.Fatalf("offer %d rejected with %d slots free", i, depth)
		}
	}
	const extra = 5
	for i := 0; i < extra; i++ {
		if agg.Offer(next()) {
			t.Fatalf("offer accepted on a full queue")
		}
	}
	if got := m.Dropped.Value(); got != extra {
		t.Errorf("Dropped = %d, want %d", got, extra)
	}

	// Deliver on the full queue defers exactly once, then blocks until
	// the drain frees a slot.
	done := make(chan struct{})
	go func() {
		agg.Deliver(next())
		close(done)
	}()
	for m.Deferred.Value() == 0 {
		runtime.Gosched()
	}
	agg.setHook(nil)
	close(release)
	<-done
	agg.Flush()

	if got := m.Deferred.Value(); got != 1 {
		t.Errorf("Deferred = %d, want 1", got)
	}
	wantEnqueued := uint64(1 + depth + 1)
	if got := m.Enqueued.Value(); got != wantEnqueued {
		t.Errorf("Enqueued = %d, want %d", got, wantEnqueued)
	}
	if got := m.Applied.Value() + m.Stale.Value(); got != wantEnqueued {
		t.Errorf("Applied+Stale = %d, want %d (every enqueued update drained)", got, wantEnqueued)
	}
	agg.Close()
}

// TestAggregatorConcurrentDelivery hammers the fan-in from many
// publishers under the race detector and checks the accounting
// equalities hold exactly: offered = enqueued + dropped, and
// enqueued = applied + stale.
func TestAggregatorConcurrentDelivery(t *testing.T) {
	const (
		nShards    = 8
		publishers = 4 // per shard
		updates    = 50
	)
	reg := obs.NewRegistry()
	m := NewAggregatorMetrics(reg)
	agg, err := NewAggregator(AggregatorConfig{Shards: nShards, QueueDepth: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	var offered, accepted struct {
		mu sync.Mutex
		n  uint64
	}
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func(s, p int) {
				defer wg.Done()
				for i := 0; i < updates; i++ {
					u := ShardUpdate{Shard: s, Seq: uint64(p*updates + i + 1)}
					if i == updates-1 {
						agg.Deliver(u)
						accepted.mu.Lock()
						accepted.n++
						accepted.mu.Unlock()
					} else if agg.Offer(u) {
						accepted.mu.Lock()
						accepted.n++
						accepted.mu.Unlock()
					}
					offered.mu.Lock()
					offered.n++
					offered.mu.Unlock()
				}
			}(s, p)
		}
	}
	wg.Wait()
	agg.Flush()

	if got := m.Enqueued.Value(); got != accepted.n {
		t.Errorf("Enqueued = %d, want %d", got, accepted.n)
	}
	if got := m.Enqueued.Value() + m.Dropped.Value(); got != offered.n {
		t.Errorf("Enqueued+Dropped = %d, want offered %d", got, offered.n)
	}
	if got := m.Applied.Value() + m.Stale.Value(); got != accepted.n {
		t.Errorf("Applied+Stale = %d, want %d (exact drain accounting)", got, accepted.n)
	}
	st, err := agg.FleetState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reporting != nShards {
		t.Errorf("Reporting = %d, want %d", st.Reporting, nShards)
	}
	// Deliver guarantees each publisher's final update landed; the
	// retained seq per shard is the max over publishers.
	for i, seq := range st.Seqs {
		if seq != publishers*updates {
			t.Errorf("shard %d retained seq %d, want %d", i, seq, publishers*updates)
		}
	}
	agg.Close()
}

// TestFleetCheckpointComposeRestore proves the fleet's checkpoint is
// nothing but its shards' checkpoints: checkpointing each durable shard,
// loading the files back and restoring them into a fresh aggregator
// reproduces the exact merge of those states, and a live shard update
// supersedes the restored seed state.
func TestFleetCheckpointComposeRestore(t *testing.T) {
	const racks, nShards = 8, 3
	pl, err := shard.Uniform(nShards, 5)
	if err != nil {
		t.Fatal(err)
	}
	// One checkpoint file per shard, as a durable fleet lays them out;
	// only the final, clean-shutdown checkpoint is taken.
	dir := t.TempDir()
	paths := make([]string, nShards)
	streams := fleetBatches(racks, 9, 80, 16)
	shards := make([]*Shard, nShards)
	for i := range shards {
		fig, err := NewLiveFigures(fleetFiguresConfig())
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, pl.Name(i)+"_"+CheckpointFileName)
		shards[i], err = NewShard(ShardConfig{
			ID: i, Placement: &pl, Figures: fig, Stats: &IngestStats{},
			Archive: &memArchive{}, CheckpointPath: paths[i], Every: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for rack, batches := range streams {
		for _, b := range batches {
			shards[pl.ShardOf(rack)].Handle(b)
		}
	}

	loaded := make([]CheckpointState, nShards)
	figs := make([]FiguresState, nShards)
	snaps := make([]Snapshot, nShards)
	for i, s := range shards {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var ok bool
		loaded[i], ok, err = LoadCheckpoint(paths[i])
		if err != nil || !ok {
			t.Fatalf("LoadCheckpoint shard %d: ok=%v err=%v", i, ok, err)
		}
		figs[i], snaps[i] = *loaded[i].Figures, *loaded[i].Ingest
	}

	agg, err := NewAggregator(AggregatorConfig{Shards: nShards, Figures: fleetFiguresConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if err := agg.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	restored, err := agg.FleetState()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := MergeFiguresStates(figs...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Figures, direct) || !reflect.DeepEqual(restored.Ingest, MergeSnapshots(snaps...)) {
		t.Error("restored aggregator state differs from the merge of the shard checkpoints")
	}
	if restored.Reporting != nShards {
		t.Errorf("Reporting = %d, want %d", restored.Reporting, nShards)
	}

	// A restarted shard's first live update (Seq 1) supersedes the
	// restored Seq-0 seed.
	agg.Deliver(shards[0].Publish())
	agg.Flush()
	st, err := agg.FleetState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seqs[0] != 1 {
		t.Errorf("live update did not supersede restored seed: seq = %d", st.Seqs[0])
	}

	// Mismatched shard counts are rejected.
	if err := agg.Restore(loaded[:1]); err == nil {
		t.Error("restoring one shard checkpoint into a 3-shard aggregator must fail")
	}
	small, err := NewAggregator(AggregatorConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if err := small.Restore(loaded); err == nil {
		t.Error("restoring 3 shard checkpoints into a 1-shard aggregator must fail")
	}
}
