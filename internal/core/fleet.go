package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"

	"mburst/internal/analysis"
	"mburst/internal/collector"
	"mburst/internal/fault"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// This file is the in-process fleet harness: N rack simulations fanned
// across the campaign runner, their sample streams encoded through the
// agent wire format and routed by a rendezvous placement onto M
// collector shards, whose published cuts an Aggregator merges into the
// fleet-wide live figures. It is the scale rig the paper's collection
// plane needs (§4.2 runs one collector per handful of racks; a fleet
// study needs hundreds) and the proof obligation is exactness: at any
// shard count, any worker count, and under shard-crash schedules, the
// fleet totals and every derived figure statistic are byte-identical to
// one collector that ingested everything.

// FleetConfig parameterizes RunFleet. The rack count, window duration,
// seed and worker pool come from the Experiment's Config; the fleet
// config adds the collection-plane shape on top.
type FleetConfig struct {
	// App selects the workload on every rack.
	App workload.App
	// Shards is the collector shard count (>= 1).
	Shards int
	// PlacementSeed seeds the rendezvous placement (see shard.Uniform).
	PlacementSeed uint64
	// Interval is the sampling interval (0 = ByteCampaignInterval).
	Interval simclock.Duration
	// BatchSize is the agent's samples-per-batch flush threshold
	// (0 = collector.DefaultBatchSize).
	BatchSize int
	// PublishEvery is the shard cut cadence in admitted batches: every
	// so many batches a shard publishes its cumulative state to the
	// aggregator via the lossy Offer path (a final blocking cut always
	// lands). 0 = 8.
	PublishEvery int
	// QueueDepth bounds the aggregator fan-in queue (0 = 4×Shards).
	QueueDepth int
	// Dir, when non-empty, makes the shards durable and lays out a fleet
	// campaign directory: campaign.json (with the placement) and one
	// archive directory per shard. Required when Faults strike.
	Dir string
	// CheckpointEvery is the durable shards' checkpoint cadence in
	// admitted batches (0 = collector.DefaultCheckpointEvery).
	CheckpointEvery int
	// Oracle also runs a single unsharded collector over the same
	// decoded stream and sets ByteExact by comparing fleet state,
	// figures render and ingest totals against it.
	Oracle bool
	// Faults schedules shard strikes: the schedule's kill/torn/shortw
	// faults are assigned round-robin over shards and each converts to a
	// kill of that shard at a batch-count offset proportional to the
	// fault time. Every struck shard resumes from its archive +
	// checkpoint, and the harness re-delivers the shard's recent-batch
	// ring (the in-process stand-in for agent spool retransmission).
	Faults fault.Schedule
	// Notes is recorded in the campaign metadata.
	Notes string
}

func (cfg *FleetConfig) withDefaults() {
	if cfg.Interval <= 0 {
		cfg.Interval = ByteCampaignInterval
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = collector.DefaultBatchSize
	}
	if cfg.PublishEvery <= 0 {
		cfg.PublishEvery = 8
	}
}

// FleetResult is the outcome of one fleet campaign.
type FleetResult struct {
	// Racks / Shards / Placement echo the campaign shape.
	Racks     int
	Shards    int
	Placement shard.Placement
	// Batches / Samples / WireBytes total the traffic fanned into the
	// collection plane (wire bytes count agent-side framing).
	Batches   uint64
	Samples   uint64
	WireBytes uint64
	// Kills / Resumes / Replayed / Redelivered / Shortfall account the
	// fault schedule's effect on the plane.
	Kills       int
	Resumes     int
	Replayed    uint64
	Redelivered uint64
	Shortfall   uint64
	// Fleet is the aggregator's merged fleet state; Figures its rendered
	// Fig 3/4/6/9 snapshot.
	Fleet   collector.FleetState
	Figures collector.FiguresSnapshot
	// Oracle reports whether the single-collector oracle ran; ByteExact
	// whether every compared surface matched it bit-for-bit.
	Oracle    bool
	ByteExact bool
}

// fleetStrike is one scheduled shard crash, triggered when the shard's
// admitted-batch count reaches at.
type fleetStrike struct {
	at   uint64
	kind fault.Kind
	frac float64
}

// fleetRingSize bounds the per-shard recent-batch ring redelivered
// after a resume — the in-process spool horizon. It only needs to cover
// what a single strike can lose (the in-flight torn/short write);
// archive replay restores everything older.
const fleetRingSize = 8

// fleetShard is one shard's runtime state. A mutex serializes delivery,
// publishing and crash/resume per shard; racks on different shards
// proceed in parallel.
type fleetShard struct {
	mu sync.Mutex

	id      int
	s       *collector.Shard
	arch    *trace.ArchiveWriter // nil when volatile
	dir     string
	acfg    trace.ArchiveConfig
	chaos   *fault.WriteChaos
	ckpt    string
	every   int
	pl      *shard.Placement
	figures collector.LiveFiguresConfig

	batches      uint64
	samples      uint64
	sincePublish int
	lastSeq      uint64

	ring    []*wire.Batch // nil unless strikes are scheduled
	strikes []fleetStrike

	kills       int
	resumes     int
	replayed    uint64
	redelivered uint64
	shortfall   uint64
}

// newShardPipeline builds one shard incarnation (fresh accumulators;
// Resume repopulates them on the crash path).
func (fs *fleetShard) newShardPipeline(arch *trace.ArchiveWriter) (*collector.Shard, error) {
	figs, err := collector.NewLiveFigures(fs.figures)
	if err != nil {
		return nil, err
	}
	var sink collector.ArchiveSink
	if arch != nil {
		sink = arch
	}
	return collector.NewShard(collector.ShardConfig{
		ID:             fs.id,
		Placement:      fs.pl,
		Figures:        figs,
		Stats:          &collector.IngestStats{},
		Archive:        sink,
		CheckpointPath: fs.ckpt,
		Every:          fs.every,
	})
}

// deliver routes one decoded batch into the shard, triggering any due
// strike and the publish cadence.
func (fs *fleetShard) deliver(b *wire.Batch, agg *collector.Aggregator, publishEvery int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	var ev *fleetStrike
	if len(fs.strikes) > 0 && fs.batches+1 >= fs.strikes[0].at {
		ev = &fs.strikes[0]
		fs.strikes = fs.strikes[1:]
		switch ev.kind {
		case fault.KindTornWrite:
			fs.chaos.ArmTorn(ev.frac)
		case fault.KindShortWrite:
			fs.chaos.ArmShort(ev.frac)
		}
	}

	fs.s.Handle(b)
	fs.batches++
	fs.samples += uint64(len(b.Samples))
	if fs.ring != nil {
		cp := &wire.Batch{Rack: b.Rack, Epoch: b.Epoch,
			Samples: append([]wire.Sample(nil), b.Samples...)}
		fs.ring = append(fs.ring, cp)
		if len(fs.ring) > fleetRingSize {
			fs.ring = fs.ring[1:]
		}
	}

	if ev != nil {
		if err := fs.resume(); err != nil {
			return err
		}
	} else if err := fs.s.Err(); err != nil {
		return fmt.Errorf("core: shard %d ingest: %w", fs.id, err)
	}

	fs.sincePublish++
	if fs.sincePublish >= publishEvery {
		fs.sincePublish = 0
		u := fs.s.Publish()
		fs.lastSeq = u.Seq
		agg.Offer(u)
	}
	return nil
}

// resume kills the current incarnation (no Close, no final sync) and
// resurrects the shard from its archive and checkpoint, then re-delivers
// the recent-batch ring; the restored epoch gate dedups the overlap.
func (fs *fleetShard) resume() error {
	fs.kills++
	arch, _, err := trace.ResumeArchive(fs.dir, fs.acfg)
	if err != nil {
		return fmt.Errorf("core: shard %d: resume archive: %w", fs.id, err)
	}
	s, err := fs.newShardPipeline(arch)
	if err != nil {
		return err
	}
	dir := fs.dir
	rep, err := s.Resume(func(fn func(*wire.Batch) error) error {
		return trace.IterArchive(dir, fn)
	})
	if err != nil {
		return fmt.Errorf("core: shard %d: resume: %w", fs.id, err)
	}
	s.ResumeSeq(fs.lastSeq)
	fs.s, fs.arch = s, arch
	fs.resumes++
	fs.replayed += rep.Replayed
	fs.shortfall += rep.Shortfall
	for _, rb := range fs.ring {
		s.Handle(rb)
		fs.redelivered++
	}
	if err := s.Err(); err != nil {
		return fmt.Errorf("core: shard %d: post-resume ingest: %w", fs.id, err)
	}
	return nil
}

// finish cuts the shard's final state: a blocking publish, a durable
// checkpoint, and the sealed archive.
func (fs *fleetShard) finish(agg *collector.Aggregator) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.s.Err(); err != nil {
		return fmt.Errorf("core: shard %d ingest: %w", fs.id, err)
	}
	u := fs.s.Publish()
	fs.lastSeq = u.Seq
	agg.Deliver(u)
	if fs.arch != nil {
		if err := fs.s.Checkpoint(); err != nil {
			return err
		}
		return fs.arch.Close()
	}
	return nil
}

// fleetStrikes converts a fault schedule into per-shard batch-count
// strikes: crash faults are assigned round-robin over shards, and each
// fault's window offset maps proportionally onto the shard's expected
// batch count.
func fleetStrikes(sched fault.Schedule, window simclock.Duration, perShard []uint64) [][]fleetStrike {
	out := make([][]fleetStrike, len(perShard))
	n := 0
	for _, f := range sched.Faults {
		switch f.Kind {
		case fault.KindCollectorKill, fault.KindTornWrite, fault.KindShortWrite:
		default:
			continue
		}
		k := n % len(perShard)
		n++
		est := perShard[k]
		if est < 2 {
			continue // a shard this small has no mid-stream to strike
		}
		at := uint64(float64(f.At) / float64(window) * float64(est))
		if at < 1 {
			at = 1
		}
		if at > est-1 {
			at = est - 1
		}
		out[k] = append(out[k], fleetStrike{at: at, kind: f.Kind, frac: f.Factor})
	}
	for k := range out {
		s := out[k]
		for i := 1; i < len(s); i++ {
			if s[i].at <= s[i-1].at {
				s[i].at = s[i-1].at + 1
			}
		}
	}
	return out
}

// RunFleet executes one fleet campaign: every rack in the Experiment's
// Config runs one measurement window on the campaign runner, its sample
// stream is batched and round-tripped through the agent wire format,
// and the decoded batches are routed by the placement onto the shards.
func (e *Experiment) RunFleet(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	cfg.withDefaults()
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("core: fleet needs a positive shard count, got %d", cfg.Shards)
	}
	if !cfg.Faults.Empty() && cfg.Dir == "" {
		return nil, errors.New("core: fleet fault schedules need a durable Dir")
	}
	pl, err := shard.Uniform(cfg.Shards, cfg.PlacementSeed)
	if err != nil {
		return nil, err
	}

	rack := e.Rack()
	figCfg := collector.LiveFiguresConfig{
		SpeedOf: func(_ uint32, port uint16) uint64 {
			if rack.IsUplink(int(port)) {
				return rack.UplinkSpeed
			}
			return rack.ServerSpeed
		},
		IsUplink:  func(_ uint32, port uint16) bool { return rack.IsUplink(int(port)) },
		Threshold: analysis.DefaultHotThreshold,
	}

	plan := e.RandomPortCounters(cfg.App)
	if cfg.Dir != "" {
		if err := trace.WriteFleetMeta(cfg.Dir, trace.Meta{
			App:         cfg.App.String(),
			NumServers:  rack.NumServers,
			NumUplinks:  rack.NumUplinks,
			ServerSpeed: rack.ServerSpeed,
			UplinkSpeed: rack.UplinkSpeed,
			Interval:    cfg.Interval,
			WindowDur:   e.cfg.WindowDur,
			Windows:     e.cfg.Racks,
			Seed:        e.cfg.Seed,
			Counters:    plan(rack, 0, 0),
			Notes:       cfg.Notes,
			Placement:   &pl,
		}); err != nil {
			return nil, err
		}
	}

	// Expected per-shard batch counts, for mapping fault offsets.
	samplesPerRack := uint64(e.cfg.WindowDur/cfg.Interval) + 1
	batchesPerRack := (samplesPerRack + uint64(cfg.BatchSize) - 1) / uint64(cfg.BatchSize)
	perShard := make([]uint64, cfg.Shards)
	for r := 0; r < e.cfg.Racks; r++ {
		perShard[pl.ShardOf(uint32(r))] += batchesPerRack
	}
	strikes := fleetStrikes(cfg.Faults, e.cfg.WindowDur, perShard)

	shards := make([]*fleetShard, cfg.Shards)
	for k := range shards {
		fs := &fleetShard{id: k, pl: &pl, figures: figCfg, every: cfg.CheckpointEvery}
		if cfg.Dir != "" {
			fs.dir = filepath.Join(cfg.Dir, pl.Name(k))
			fs.ckpt = filepath.Join(fs.dir, collector.CheckpointFileName)
			fs.chaos = fault.NewWriteChaos(nil)
			fs.acfg = trace.ArchiveConfig{Open: fs.chaos.Wrap(nil)}
			arch, err := trace.CreateArchive(fs.dir, fs.acfg)
			if err != nil {
				return nil, err
			}
			fs.arch = arch
			fs.s, err = fs.newShardPipeline(arch)
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			fs.s, err = fs.newShardPipeline(nil)
			if err != nil {
				return nil, err
			}
		}
		if len(strikes[k]) > 0 {
			fs.strikes = strikes[k]
			fs.ring = make([]*wire.Batch, 0, fleetRingSize+1)
		}
		shards[k] = fs
	}

	agg, err := collector.NewAggregator(collector.AggregatorConfig{
		Shards:     cfg.Shards,
		QueueDepth: cfg.QueueDepth,
		Figures:    figCfg,
	})
	if err != nil {
		return nil, err
	}
	defer agg.Close()

	var oracle *collector.Shard
	var oracleMu sync.Mutex
	if cfg.Oracle {
		figs, err := collector.NewLiveFigures(figCfg)
		if err != nil {
			return nil, err
		}
		oracle, err = collector.NewShard(collector.ShardConfig{
			Figures: figs,
			Stats:   &collector.IngestStats{},
		})
		if err != nil {
			return nil, err
		}
	}

	var wireBytes atomic.Uint64
	cells := make([]Cell, e.cfg.Racks)
	for r := range cells {
		cells[r] = Cell{App: cfg.App, RackID: r, Window: 0, Plan: plan, Interval: cfg.Interval}
	}

	// Each cell is one rack's agent: batch the captured samples, encode
	// them through a per-rack wire stream (MBW3 delta chains are scoped
	// per connection), then decode and route to the owning shard — and,
	// when the oracle runs, into the unsharded pipeline too.
	err = e.Runner().Run(ctx, cells, func(_ int, run *CellRun) error {
		rackID := uint32(run.Cell.RackID)
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		for lo := 0; lo < len(run.Samples); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(run.Samples) {
				hi = len(run.Samples)
			}
			b := &wire.Batch{Rack: rackID, Epoch: 1, Samples: run.Samples[lo:hi]}
			if err := w.WriteBatch(b); err != nil {
				return err
			}
		}
		wireBytes.Add(uint64(buf.Len()))

		target := shards[pl.ShardOf(rackID)]
		rd := wire.NewReader(&buf)
		rd.SetReuse(true)
		for {
			b, err := rd.ReadBatch()
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return err
			}
			if oracle != nil {
				oracleMu.Lock()
				oracle.Handle(b)
				oracleMu.Unlock()
			}
			if err := target.deliver(b, agg, cfg.PublishEvery); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &FleetResult{
		Racks:     e.cfg.Racks,
		Shards:    cfg.Shards,
		Placement: pl,
		WireBytes: wireBytes.Load(),
		Oracle:    cfg.Oracle,
	}
	for _, fs := range shards {
		if err := fs.finish(agg); err != nil {
			return nil, err
		}
		res.Batches += fs.batches
		res.Samples += fs.samples
		res.Kills += fs.kills
		res.Resumes += fs.resumes
		res.Replayed += fs.replayed
		res.Redelivered += fs.redelivered
		res.Shortfall += fs.shortfall
	}
	agg.Flush()
	res.Fleet, err = agg.FleetState()
	if err != nil {
		return nil, err
	}
	res.Figures, err = agg.FleetFigures()
	if err != nil {
		return nil, err
	}

	if oracle != nil {
		want := oracle.Publish()
		wantFigs, err := collector.RenderFigures(figCfg, want.Figures)
		if err != nil {
			return nil, err
		}
		res.ByteExact = reflect.DeepEqual(res.Fleet.Figures, want.Figures) &&
			reflect.DeepEqual(res.Fleet.Ingest, want.Ingest) &&
			reflect.DeepEqual(res.Figures, wantFigs)
	}
	return res, nil
}
