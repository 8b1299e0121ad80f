package main

// adapter.go is the only file in bench/ that imports mburst/internal/...
// Every call the benchmark makes into the program goes through a function
// or a type alias declared here (the symbol list is repeated in
// README.md), so the ROADMAP's "one pipeline, one store, one constructor"
// collapse needs this file re-pointed, not the benchmark rewritten. It
// deliberately uses the most general constructor of each family
// (ServeConfigured, NewClientConfigured, NewShard,
// CreateArchive/ResumeArchive/IterArchive).

import (
	"context"
	"io"
	"net"
	"path/filepath"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/core"
	"mburst/internal/eventq"
	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/stats"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// The data model the harness handles directly.
type (
	Sample          = wire.Sample
	Batch           = wire.Batch
	BatchHandler    = collector.BatchHandler
	Client          = collector.Client
	Server          = collector.Server
	IngestStats     = collector.IngestStats
	IngestSnapshot  = collector.Snapshot
	LiveFigures     = collector.LiveFigures
	FiguresSnapshot = collector.FiguresSnapshot
	FiguresState    = collector.FiguresState
	FleetState      = collector.FleetState
	Shard           = collector.Shard
	Aggregator      = collector.Aggregator
	ArchiveSink     = collector.ArchiveSink
	ArchiveWriter   = trace.ArchiveWriter
	Opener          = trace.Opener
	Placement       = shard.Placement
	WireWriter      = wire.Writer
	WireReader      = wire.Reader
	ResumeReport    = collector.ResumeReport
)

// Counter families, for the generator's cumulative-vs-register split.
const (
	kindBytes      = asic.KindBytes
	kindSizeBins   = asic.KindSizeBins
	kindBufferPeak = asic.KindBufferPeak
	numSizeBins    = asic.NumSizeBins
)

// sampleInterval is the paper's finest polling interval, used by every
// base stream.
const sampleInterval = 25 * simclock.Microsecond

// ---- campaign -------------------------------------------------------

// campaign wraps one core.Experiment and the registry its counters land
// in.
type campaign struct {
	exp *core.Experiment
	reg *obs.Registry
	cfg core.Config
}

// campaignScale selects the fixed campaign configuration.
type campaignScale int

const (
	campaignFull  campaignScale = iota // core.QuickConfig: 52 cells, ~325k samples
	campaignQuick                      // ~1/10 of that, for -quick and warm-up
)

func newCampaign(seed uint64, workers int, scale campaignScale) (*campaign, error) {
	cfg := core.QuickConfig()
	if scale == campaignQuick {
		cfg.Windows = 1
		cfg.WindowDur = 10 * simclock.Millisecond
		cfg.Warmup = 2 * simclock.Millisecond
	}
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Metrics = obs.NewRegistry()
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		return nil, err
	}
	return &campaign{exp: exp, reg: cfg.Metrics, cfg: cfg}, nil
}

// runAll is the campaign workload's timed call.
func (c *campaign) runAll(ctx context.Context) (*core.Report, error) { return c.exp.RunAll(ctx) }

func reportText(r *core.Report) string { return r.Format() }

// counter reads one registry counter by name (0 when absent).
func (c *campaign) counter(name string) float64 {
	var v float64
	for _, f := range c.reg.Snapshot().Families {
		if f.Name == name {
			for _, s := range f.Series {
				v += s.Value
			}
		}
	}
	return v
}

// ---- base streams (set-up only) -------------------------------------

// baseKind selects the counter plan of the simulated base streams.
type baseKind int

const (
	baseFullCounters baseKind = iota // every port's bytes + size bins + buffer peak
	baseSingleByte                   // one random port's TX byte counter
)

// simulateBase runs `racks` Web racks for durMs simulated milliseconds at
// 25 µs polling and returns each rack's samples in emission order. This
// is the only place the ingest workloads touch the simulator, and it is
// set-up, not timed work.
func simulateBase(ctx context.Context, seed uint64, racks int, kind baseKind, durMs int) ([][]Sample, error) {
	cfg := core.QuickConfig()
	cfg.Seed = seed
	cfg.Racks = racks
	cfg.Windows = 1
	cfg.Workers = 2
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		return nil, err
	}
	plan := core.FullCounters()
	if kind == baseSingleByte {
		plan = exp.RandomPortCounters(workload.Web)
	}
	cells := make([]core.Cell, racks)
	for r := range cells {
		cells[r] = core.Cell{App: workload.Web, RackID: r, Plan: plan,
			Interval: sampleInterval, Duration: simclock.Duration(durMs) * simclock.Millisecond}
	}
	return core.RunCells(ctx, exp.Runner(), cells, func(run *core.CellRun) ([]Sample, error) {
		return run.Samples, nil
	})
}

// ---- live ingest pipeline -------------------------------------------

// figuresConfig is the mbcollectd -figures port map for the 16-server
// rack every base stream simulates.
func figuresConfig() collector.LiveFiguresConfig {
	rack := topo.Default(core.QuickConfig().Servers)
	return collector.LiveFiguresConfig{
		SpeedOf: func(_ uint32, port uint16) uint64 {
			if rack.IsUplink(int(port)) {
				return rack.UplinkSpeed
			}
			return rack.ServerSpeed
		},
		IsUplink: func(_ uint32, port uint16) bool { return rack.IsUplink(int(port)) },
	}
}

func newFigures() (*LiveFigures, error) { return collector.NewLiveFigures(figuresConfig()) }

// latchedSeries counts series whose utilization converter latched an
// error (a damaged stream); the generator must never cause one.
func latchedSeries(f *LiveFigures) int {
	n := 0
	for _, s := range f.State().Series {
		if s.Util.Err != "" {
			n++
		}
	}
	return n
}

// gateCounters is the epoch gate's drop accounting.
type gateCounters struct{ m *collector.ServerMetrics }

func newGateCounters() gateCounters {
	return gateCounters{m: collector.NewServerMetrics(obs.NewRegistry())}
}

func (g gateCounters) dropped() uint64 {
	return g.m.StaleBatches.Value() + g.m.ReorderedBatches.Value()
}

func (g gateCounters) decodeErrors() uint64 { return g.m.DecodeErrors.Value() }

// serveLive starts the `mbcollectd -figures -epochgate` chain on ln:
// ServeConfigured{EpochGate} → handler. The caller composes handler from
// statsWrap/figuresWrap so it can interpose timing between stages.
func serveLive(ln net.Listener, handler BatchHandler, g gateCounters) *Server {
	return collector.ServeConfigured(ln, handler, collector.ServerConfig{
		Metrics:   g.m,
		EpochGate: true,
	})
}

func statsWrap(s *IngestStats, next BatchHandler) BatchHandler   { return s.Wrap(next) }
func figuresWrap(f *LiveFigures, next BatchHandler) BatchHandler { return f.Wrap(next) }

// newGate builds a standalone epoch gate for the isolated gate drive.
func newGate(next BatchHandler) BatchHandler {
	return collector.NewEpochGate(next, nil).Handle
}

// newClient returns a per-rack MBW3 agent client writing to w at epoch 1.
func newClient(w io.Writer, rack uint32, maxBatch int) (*Client, error) {
	c, err := collector.NewClientConfigured(w, collector.ClientConfig{
		Rack: rack, MaxBatch: maxBatch, Format: wire.FormatMBW3,
	})
	if err != nil {
		return nil, err
	}
	c.SetEpoch(1)
	return c, nil
}

func newWireWriter(w io.Writer) (*WireWriter, error) {
	return wire.NewWriterFormat(w, wire.FormatMBW3)
}

func newWireReader(r io.Reader) *WireReader {
	rd := wire.NewReader(r)
	rd.SetReuse(true)
	return rd
}

// ---- durable fleet plane --------------------------------------------

func uniformPlacement(shards int, seed uint64) (Placement, error) { return shard.Uniform(shards, seed) }

// archiveConfig is the durable shards' archive: MBW3 with the default
// SyncEvery / SegmentBatches. open interposes the fsync timer.
func archiveConfig(open Opener) trace.ArchiveConfig {
	return trace.ArchiveConfig{Format: wire.FormatMBW3, Open: open}
}

func createArchive(dir string, open Opener) (*ArchiveWriter, error) {
	return trace.CreateArchive(dir, archiveConfig(open))
}

func resumeArchive(dir string, open Opener) (*ArchiveWriter, error) {
	w, _, err := trace.ResumeArchive(dir, archiveConfig(open))
	return w, err
}

func iterArchive(dir string, fn func(*Batch) error) error { return trace.IterArchive(dir, fn) }

func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }

// loadCheckpoint parses a shard checkpoint, as Resume does first.
func loadCheckpoint(path string) error {
	_, _, err := collector.LoadCheckpoint(path)
	return err
}

// shardCounters holds the registry-backed counters one shard incarnation
// chain reports into (shared across resumes so totals accumulate).
type shardCounters struct {
	shard    *collector.ShardMetrics
	recovery *collector.RecoveryMetrics
	gate     gateCounters
}

func newShardCounters() shardCounters {
	reg := obs.NewRegistry()
	return shardCounters{
		shard:    collector.NewShardMetrics(reg),
		recovery: collector.NewRecoveryMetrics(reg),
		gate:     newGateCounters(),
	}
}

func (c shardCounters) misrouted() uint64   { return c.shard.Misrouted.Value() }
func (c shardCounters) checkpoints() uint64 { return c.recovery.Checkpoints.Value() }
func (c shardCounters) failures() uint64 {
	return c.recovery.IngestFailures.Value() + c.recovery.CheckpointErrors.Value()
}

// newShard builds one shard incarnation. archive == nil makes it volatile
// (the fleet oracle); otherwise it is durable with the default checkpoint
// cadence, checkpointing next to the archive in dir.
func newShard(id int, pl *Placement, archive ArchiveSink, dir string, c shardCounters) (*Shard, error) {
	figs, err := newFigures()
	if err != nil {
		return nil, err
	}
	cfg := collector.ShardConfig{
		ID:              id,
		Placement:       pl,
		Figures:         figs,
		Stats:           &collector.IngestStats{},
		GateMetrics:     c.gate.m,
		RecoveryMetrics: c.recovery,
		Metrics:         c.shard,
	}
	if archive != nil {
		cfg.Archive = archive
		cfg.CheckpointPath = checkpointPath(dir)
	}
	return collector.NewShard(cfg)
}

// aggCounters is the aggregator's fan-in accounting.
type aggCounters struct{ m *collector.AggregatorMetrics }

func (a aggCounters) enqueued() uint64 { return a.m.Enqueued.Value() }
func (a aggCounters) dropped() uint64  { return a.m.Dropped.Value() }

func newAggregator(shards int) (*Aggregator, aggCounters, error) {
	c := aggCounters{m: collector.NewAggregatorMetrics(obs.NewRegistry())}
	a, err := collector.NewAggregator(collector.AggregatorConfig{
		Shards:  shards,
		Figures: figuresConfig(),
		Metrics: c.m,
	})
	return a, c, err
}

// renderFigures renders a figures state the way FleetFigures does, for
// the oracle side of the fleet comparison.
func renderFigures(st FiguresState) (FiguresSnapshot, error) {
	lf, err := newFigures()
	if err != nil {
		return FiguresSnapshot{}, err
	}
	lf.RestoreState(st)
	return lf.Snapshot(), nil
}

// ---- single-layer drives (-trace only) ------------------------------

// simCell is one campaign-shaped rack simulation the isolated sim-layer
// drives run on: a rack of the campaign config, one window long.
type simCell struct {
	cfg      simnet.Config
	simMs    float64 // one window
	warmupMs float64
	window   simclock.Duration
}

// newSimCells returns one cell per application class, since RunAll
// spreads its cells evenly over the three.
func newSimCells(seed uint64, c *campaign) []simCell {
	var cells []simCell
	for _, app := range workload.Apps {
		cells = append(cells, simCell{
			cfg: simnet.Config{
				Rack:   c.exp.Rack(),
				Params: c.cfg.ResolvedParams(app),
				Seed:   seed,
			},
			window:   c.cfg.WindowDur,
			simMs:    float64(c.cfg.WindowDur) / float64(simclock.Millisecond),
			warmupMs: float64(c.cfg.Warmup) / float64(simclock.Millisecond),
		})
	}
	return cells
}

// simStats is what one isolated simulation drive observed.
type simStats struct {
	events, flows, samples, missed uint64
}

// runNet drives simnet.Net.Run alone (workload + eventq + asic inside).
func (s simCell) runNet() (simStats, error) {
	n, err := simnet.New(s.cfg)
	if err != nil {
		return simStats{}, err
	}
	n.Run(s.window)
	return simStats{events: n.Scheduler().Processed(), flows: n.Generator().FlowsStarted()}, nil
}

type nopSink struct{}

func (nopSink) StartFlow(*workload.Flow) {}
func (nopSink) EndFlow(*workload.Flow)   {}

// runGenerator drives the workload generator alone on a bare scheduler
// with a sink that ignores flows (same seed stream simnet.New derives).
func (s simCell) runGenerator() (simStats, error) {
	g, err := workload.NewGenerator(s.cfg.Params, s.cfg.Rack, 0, 1, rng.New(s.cfg.Seed).Split("workload"))
	if err != nil {
		return simStats{}, err
	}
	sched := eventq.NewScheduler()
	g.Install(sched, nopSink{})
	sched.RunUntil(simclock.Time(s.window))
	return simStats{events: sched.Processed(), flows: g.FlowsStarted()}, nil
}

// runScheduler drives the event queue alone: n self-rescheduling no-op
// timers, `fanout` of them pending at any time.
func runScheduler(n uint64, fanout int) uint64 {
	sched := eventq.NewScheduler()
	var tick eventq.Handler
	step := simclock.Microsecond
	tick = func(simclock.Time) { sched.After(step*simclock.Duration(fanout), tick) }
	for i := 0; i < fanout; i++ {
		sched.After(step*simclock.Duration(i+1), tick)
	}
	return sched.Run(n)
}

// runSwitch drives the ASIC model alone: every port offered 30% of line
// rate each 5 µs tick, for `ticks` ticks.
func (s simCell) runSwitch(ticks int) {
	rack := s.cfg.Rack
	sw := asic.New(asic.Config{PortSpeeds: rack.PortSpeeds(), BufferBytes: 1.5 * (1 << 20), Alpha: 1})
	step := 5 * simclock.Microsecond
	profile := s.cfg.Params.OutsideMix.Profile()
	speeds := rack.PortSpeeds()
	for t := 0; t < ticks; t++ {
		for p, bps := range speeds {
			sw.OfferTx(p, 0.3*float64(bps)/8*step.Seconds(), profile)
		}
		sw.Tick(step)
	}
}

// runPoller drives the polling loop alone against an idle switch with the
// campaign's single-byte-counter plan.
func (s simCell) runPoller(emit func(Sample)) (simStats, error) {
	rack := s.cfg.Rack
	sw := asic.New(asic.Config{PortSpeeds: rack.PortSpeeds(), BufferBytes: 1.5 * (1 << 20), Alpha: 1})
	sched := eventq.NewScheduler()
	p, err := collector.NewPoller(collector.PollerConfig{
		Interval:      sampleInterval,
		Counters:      []collector.CounterSpec{{Port: 0, Dir: asic.TX, Kind: asic.KindBytes}},
		DedicatedCore: true,
	}, sw, rng.New(s.cfg.Seed).Split("poll"), collector.EmitterFunc(emit))
	if err != nil {
		return simStats{}, err
	}
	p.Install(sched)
	sched.RunUntil(simclock.Time(s.window))
	p.Stop()
	return simStats{events: sched.Processed(), samples: p.Samples(), missed: p.Missed()}, nil
}

// analysisFeed is the per-series accumulator set the streaming figures
// run on every byte sample: UtilState → BurstSegmenter + Markov + ECDFs.
type analysisFeed struct {
	util      *analysis.UtilState
	seg       *analysis.BurstSegmenter
	mk        stats.MarkovAcc
	durations stats.ECDFAcc
	gaps      stats.ECDFAcc
	moments   stats.MomentAcc
}

func newAnalysisFeed(speedBps uint64) *analysisFeed {
	return &analysisFeed{
		util: analysis.NewUtilState(speedBps),
		seg:  analysis.NewBurstSegmenter(analysis.SegmenterConfig{}),
	}
}

func (a *analysisFeed) feed(s Sample) {
	p, ok, err := a.util.Feed(s)
	if err != nil || !ok {
		return
	}
	a.mk.Observe(p.Util > analysis.DefaultHotThreshold)
	a.moments.Add(p.Util)
	if tr, fired := a.seg.Feed(p); fired {
		switch tr.Kind {
		case analysis.SegOpen:
			if tr.HasGap {
				a.gaps.Add(float64(tr.Gap) / float64(simclock.Microsecond))
			}
		case analysis.SegClose:
			a.durations.Add(float64(tr.Burst.Duration()) / float64(simclock.Microsecond))
		}
	}
}

// portSpeed is the line rate of a port on the base streams' rack.
func portSpeed(port uint16) uint64 { return figuresConfig().SpeedOf(0, port) }

// simTime converts a sample timestamp for the generator's tiling maths.
func simNanos(s *Sample) int64 { return s.Time.Nanoseconds() }

func setSimNanos(s *Sample, ns int64) { s.Time = simclock.Time(ns) }

// tileSpan is one base stream's length in simulated nanoseconds; tile k
// is the base shifted by k × tileSpan.
func tileSpan(durMs int) int64 {
	return int64(simclock.Duration(durMs)*simclock.Millisecond + sampleInterval)
}
