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
	// WireBytes totals the agent-side framing of the traffic fanned into
	// the collection plane.
	WireBytes uint64
	// fleetCounts holds Batches / Samples, the traffic the shards
	// admitted, and Kills / Resumes / Replayed / Redelivered / Shortfall,
	// the fault schedule's effect on the plane: every shard's, summed.
	fleetCounts
	// Fleet is the aggregator's merged fleet state; Figures its rendered
	// Fig 3/4/6/9 snapshot.
	Fleet   collector.FleetState
	Figures collector.FiguresSnapshot
	// Oracle reports whether the single-collector oracle ran; ByteExact
	// whether every compared surface matched it bit-for-bit.
	Oracle    bool
	ByteExact bool
}

// fleetCounts is what each shard counts and a fleet sums (add).
type fleetCounts struct {
	Batches     uint64
	Samples     uint64
	Kills       int
	Resumes     int
	Replayed    uint64
	Redelivered uint64
	Shortfall   uint64
}

func (c *fleetCounts) add(o fleetCounts) {
	c.Batches += o.Batches
	c.Samples += o.Samples
	c.Kills += o.Kills
	c.Resumes += o.Resumes
	c.Replayed += o.Replayed
	c.Redelivered += o.Redelivered
	c.Shortfall += o.Shortfall
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

// RunFleet executes one fleet campaign: every rack in the Experiment's
// Config runs one measurement window on the campaign runner, its sample
// stream is batched and round-tripped through the agent wire format,
// and the decoded batches are routed by the placement onto the shards.
func (e *Experiment) RunFleet(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	p, err := e.planFleet(cfg)
	if err != nil {
		return nil, err
	}
	r, err := e.drive(ctx, p)
	if err != nil {
		return nil, err
	}
	return r.finish()
}

// fleetPlan is a fleet campaign decided before any rack runs.
type fleetPlan struct {
	cfg      FleetConfig // defaults applied
	racks    int
	pl       shard.Placement
	figures  collector.LiveFiguresConfig // every shard's, the aggregator's and the oracle's
	counters CounterPlan                 // what every rack polls
	strikes  [][]fleetStrike             // per shard
}

// planFleet validates cfg and decides the campaign: the placement, the
// figures config, the counter plan, the campaign.json of a durable fleet,
// and each shard's strikes, mapped onto the batches it expects.
func (e *Experiment) planFleet(cfg FleetConfig) (*fleetPlan, error) {
	cfg.withDefaults()
	if !cfg.Faults.Empty() && cfg.Dir == "" {
		return nil, errors.New("core: fleet fault schedules need a durable Dir")
	}
	pl, err := shard.Uniform(cfg.Shards, cfg.PlacementSeed) // rejects a shard count below 1
	if err != nil {
		return nil, err
	}
	rack := e.Rack()
	p := &fleetPlan{cfg: cfg, racks: e.cfg.Racks, pl: pl, counters: e.RandomPortCounters(cfg.App)}
	p.figures = collector.LiveFiguresConfig{
		SpeedOf: func(_ uint32, port uint16) uint64 {
			if rack.IsUplink(int(port)) {
				return rack.UplinkSpeed
			}
			return rack.ServerSpeed
		},
		IsUplink:  func(_ uint32, port uint16) bool { return rack.IsUplink(int(port)) },
		Threshold: analysis.DefaultHotThreshold,
	}
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
			Counters:    p.counters(rack, 0, 0),
			Notes:       cfg.Notes,
			Placement:   &p.pl,
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
	p.strikes = fleetStrikes(cfg.Faults, e.cfg.WindowDur, perShard)
	return p, nil
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

// fleetRun is a fleet campaign in flight.
type fleetRun struct {
	p         *fleetPlan
	shards    []*fleetShard
	agg       *collector.Aggregator
	oracle    *collector.Shard // unsharded, fed the same decoded stream; nil unless cfg.Oracle
	wireBytes atomic.Uint64
}

// drive opens the shards, the oracle and the aggregator, then runs one
// cell per rack on the campaign runner (fleetRun.rack). A run it returns
// is finish's to close; on an error it closes the aggregator itself.
func (e *Experiment) drive(ctx context.Context, p *fleetPlan) (*fleetRun, error) {
	r := &fleetRun{p: p, shards: make([]*fleetShard, p.cfg.Shards)}
	for k := range r.shards {
		fs := &fleetShard{id: k, p: p, chaos: fault.NewWriteChaos(nil), strikes: p.strikes[k]}
		if err := fs.open(); err != nil {
			return nil, err
		}
		r.shards[k] = fs
	}
	if p.cfg.Oracle {
		figs, err := collector.NewLiveFigures(p.figures)
		if err != nil {
			return nil, err
		}
		if r.oracle, err = collector.NewShard(collector.ShardConfig{Figures: figs, Stats: &collector.IngestStats{}}); err != nil {
			return nil, err
		}
	}
	var err error
	if r.agg, err = collector.NewAggregator(collector.AggregatorConfig{Shards: p.cfg.Shards, Figures: p.figures}); err != nil {
		return nil, err
	}
	cells := make([]Cell, p.racks)
	for i := range cells {
		cells[i] = Cell{App: p.cfg.App, RackID: i, Plan: p.counters, Interval: p.cfg.Interval}
	}
	if err := e.Runner().Run(ctx, cells, r.rack); err != nil {
		r.agg.Close()
		return nil, err
	}
	return r, nil
}

// rack is one rack's agent, run as a cell: batch the captured samples,
// encode them through a wire stream of the rack's own (MBW3 delta chains
// are scoped per connection), then decode and route each batch to the
// owning shard and the oracle.
func (r *fleetRun) rack(_ int, run *CellRun) error {
	size := r.p.cfg.BatchSize
	rackID := uint32(run.Cell.RackID)
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for lo := 0; lo < len(run.Samples); lo += size {
		b := &wire.Batch{Rack: rackID, Epoch: 1, Samples: run.Samples[lo:min(lo+size, len(run.Samples))]}
		if err := w.WriteBatch(b); err != nil {
			return err
		}
	}
	r.wireBytes.Add(uint64(buf.Len()))

	target := r.shards[r.p.pl.ShardOf(rackID)]
	rd := wire.NewReader(&buf)
	rd.SetReuse(true)
	for {
		b, err := rd.ReadBatch()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if r.oracle != nil {
			r.oracle.Handle(b)
		}
		if err := target.deliver(b, r.agg); err != nil {
			return err
		}
	}
}

// finish closes every shard and the aggregator, sums the shards' counts,
// and compares the merged fleet state with the oracle's when one ran.
func (r *fleetRun) finish() (*FleetResult, error) {
	defer r.agg.Close()
	res := &FleetResult{
		Racks:     r.p.racks,
		Shards:    r.p.cfg.Shards,
		Placement: r.p.pl,
		WireBytes: r.wireBytes.Load(),
		Oracle:    r.oracle != nil,
	}
	for _, fs := range r.shards {
		if err := fs.close(r.agg); err != nil {
			return nil, err
		}
		res.add(fs.n)
	}
	r.agg.Flush()
	var err error
	if res.Fleet, err = r.agg.FleetState(); err != nil {
		return nil, err
	}
	if res.Figures, err = r.agg.FleetFigures(); err != nil {
		return nil, err
	}
	if r.oracle != nil {
		want := r.oracle.Publish()
		wantFigs, err := collector.RenderFigures(r.p.figures, want.Figures)
		if err != nil {
			return nil, err
		}
		res.ByteExact = reflect.DeepEqual(res.Fleet.Figures, want.Figures) &&
			reflect.DeepEqual(res.Fleet.Ingest, want.Ingest) &&
			reflect.DeepEqual(res.Figures, wantFigs)
	}
	return res, nil
}

// fleetShard is one shard across its incarnations. mu serializes
// delivery, publishing and crash/resume; shards proceed in parallel.
type fleetShard struct {
	mu sync.Mutex

	id    int
	p     *fleetPlan
	s     *collector.Shard     // the live incarnation
	arch  *trace.ArchiveWriter // its archive; nil when volatile
	chaos *fault.WriteChaos    // the disk faults a strike arms

	lastSeq uint64 // the last cut's sequence number
	strikes []fleetStrike
	ring    []*wire.Batch // the last batches delivered, while a strike is due

	n fleetCounts
}

// open builds the shard's next incarnation, one way for its first life
// and every life after a kill: create (after a kill, recover) a durable
// shard's archive and a collector.Shard over it. After a kill the shard
// resumes from its checkpoint and archive tail, continues the dead
// incarnation's publish sequence and takes the ring again, whose overlap
// with the archive its restored gate dedups.
func (fs *fleetShard) open() error {
	resume := fs.s != nil
	figs, err := collector.NewLiveFigures(fs.p.figures)
	if err != nil {
		return err
	}
	cfg := collector.ShardConfig{ID: fs.id, Placement: &fs.p.pl, Figures: figs,
		Stats: &collector.IngestStats{}, Every: fs.p.cfg.CheckpointEvery}
	var arch *trace.ArchiveWriter
	var dir string
	if fs.p.cfg.Dir != "" {
		dir = filepath.Join(fs.p.cfg.Dir, fs.p.pl.Name(fs.id))
		acfg := trace.ArchiveConfig{Open: fs.chaos.Wrap(nil)}
		if resume {
			arch, _, err = trace.ResumeArchive(dir, acfg)
		} else {
			arch, err = trace.CreateArchive(dir, acfg)
		}
		if err != nil {
			return fmt.Errorf("core: shard %d: open archive: %w", fs.id, err)
		}
		cfg.Archive, cfg.CheckpointPath = arch, filepath.Join(dir, collector.CheckpointFileName)
	}
	s, err := collector.NewShard(cfg)
	if err != nil {
		return err
	}
	fs.s, fs.arch = s, arch
	if !resume {
		return nil
	}
	rep, err := s.Resume(func(fn func(*wire.Batch) error) error {
		return trace.IterArchive(dir, fn)
	})
	if err != nil {
		return fmt.Errorf("core: shard %d: resume: %w", fs.id, err)
	}
	s.ResumeSeq(fs.lastSeq)
	fs.n.Resumes++
	fs.n.Replayed += rep.Replayed
	fs.n.Shortfall += rep.Shortfall
	for _, rb := range fs.ring {
		s.Handle(rb)
		fs.n.Redelivered++
	}
	if err := s.Err(); err != nil {
		return fmt.Errorf("core: shard %d: post-resume ingest: %w", fs.id, err)
	}
	return nil
}

// deliver routes one decoded batch into the shard, triggering any due
// strike and the publish cadence.
func (fs *fleetShard) deliver(b *wire.Batch, agg *collector.Aggregator) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	var ev *fleetStrike
	if len(fs.strikes) > 0 && fs.n.Batches+1 >= fs.strikes[0].at {
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
	fs.n.Batches++
	fs.n.Samples += uint64(len(b.Samples))
	if ev != nil || len(fs.strikes) > 0 {
		fs.ring = append(fs.ring, &wire.Batch{Rack: b.Rack, Epoch: b.Epoch,
			Samples: append([]wire.Sample(nil), b.Samples...)})
		if len(fs.ring) > fleetRingSize {
			fs.ring = fs.ring[1:]
		}
	}

	if ev != nil {
		// The strike kills this incarnation: no Close, no final sync.
		fs.n.Kills++
		if err := fs.open(); err != nil {
			return err
		}
	} else if err := fs.s.Err(); err != nil {
		return fmt.Errorf("core: shard %d ingest: %w", fs.id, err)
	}

	if fs.n.Batches%uint64(fs.p.cfg.PublishEvery) == 0 {
		agg.Offer(fs.publish())
	}
	return nil
}

// publish cuts the shard's state for the aggregator — the cadence's cut,
// which Offer may shed, and the final one, which Deliver lands — and
// records its sequence number for a later incarnation to continue from.
func (fs *fleetShard) publish() collector.ShardUpdate {
	u := fs.s.Publish()
	fs.lastSeq = u.Seq
	return u
}

// close cuts the shard's final state once every rack has run: a
// blocking publish, a durable checkpoint, and the sealed archive.
func (fs *fleetShard) close(agg *collector.Aggregator) error {
	agg.Deliver(fs.publish())
	if err := fs.s.Checkpoint(); err != nil || fs.arch == nil {
		return err
	}
	return fs.arch.Close()
}
