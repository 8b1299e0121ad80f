package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/fault"
	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// refRunCell is the runner's cell as it stood before cells shared a rack:
// build the rack, warm it up, poll the plan's counters for the cell
// duration, and return the captured samples plus the poller's statistics.
// Nothing another cell does can reach a rack of its own, so it is the
// oracle for the grouped runner.
func (e *Experiment) refRunCell(c Cell) (*CellRun, error) {
	if c.Plan == nil {
		return nil, errors.New("no counter plan")
	}
	interval := c.Interval
	if interval <= 0 {
		interval = ByteCampaignInterval
	}
	dur := c.Duration
	if dur <= 0 {
		dur = e.cfg.WindowDur
	}
	net, err := e.newNet(c.App, c.RackID, c.Window)
	if err != nil {
		return nil, err
	}
	counters := c.Plan(net.Rack(), c.RackID, c.Window)

	n := int64(dur/interval) + 1
	if n > captureCap {
		n = captureCap
	}
	captured := make([]wire.Sample, 0, int(n)*len(counters))
	schedule := e.cellFaults(c, dur)
	var pollFault collector.PollFault
	if !schedule.Empty() {
		pollFault = fault.NewPollerInjector(schedule, e.faultM)
	}
	p, err := collector.NewPoller(collector.PollerConfig{
		Interval:      interval,
		Counters:      counters,
		DedicatedCore: true,
		Metrics:       e.pollerM,
		Fault:         pollFault,
	}, net.Switch(), e.pollSource(c, interval), collector.EmitterFunc(func(s wire.Sample) {
		captured = append(captured, s)
	}))
	if err != nil {
		return nil, err
	}
	net.Run(e.cfg.Warmup)
	// Clear the peak register so warmup bursts don't leak into the first
	// recorded sample.
	net.Switch().ReadPeakBufferAndClear()
	p.Install(net.Scheduler())
	net.Run(dur)
	p.Stop()
	e.windows.Inc()
	e.samples.Add(uint64(len(captured)))
	return &CellRun{
		Cell:     c,
		Net:      net,
		Samples:  captured,
		MissRate: p.MissRate(),
		CPUBusy:  p.CPUBusyFrac(),
		Faults:   schedule,
	}, nil
}

// groupCase is one generated group: 1–6 cells on one rack-window of a
// tiny rack, at a window that is or is not a whole number of simulator
// ticks, with an optional fault schedule on every cell.
type groupCase struct {
	window   simclock.Duration
	app      workload.App
	rackWin  int
	cells    []Cell
	plans    []string
	schedule *fault.Schedule
}

// groupPlans are the plans a generated cell draws from: a random port's
// bytes, downlink bytes + drops, uplink RX/TX bytes, and every port with
// and without the buffer-peak register, plus the full counter set (which
// reads the register too).
var groupPlans = []string{"random-port", "downlink-drops", "uplink-rxtx", "all-ports", "all-ports+peak", "full"}

// groupIntervals are the sampling intervals a generated cell draws from, µs.
var groupIntervals = []int64{1, 10, 25, 40, 100, 250, 300}

// groupPlan resolves one of groupPlans.
func (e *Experiment) groupPlan(name string, app workload.App) CounterPlan {
	switch name {
	case "random-port":
		return e.RandomPortCounters(app)
	case "downlink-drops":
		return downlinkCounters(e.cfg.Servers, asic.KindBytes, asic.KindDrops)
	case "uplink-rxtx":
		return func(rack topo.Rack, _, _ int) []collector.CounterSpec {
			var out []collector.CounterSpec
			for u := 0; u < rack.NumUplinks; u++ {
				out = append(out,
					collector.CounterSpec{Port: rack.UplinkPort(u), Dir: asic.RX, Kind: asic.KindBytes},
					collector.CounterSpec{Port: rack.UplinkPort(u), Dir: asic.TX, Kind: asic.KindBytes})
			}
			return out
		}
	case "all-ports":
		return AllPortCounters(false)
	case "all-ports+peak":
		return AllPortCounters(true)
	}
	return FullCounters()
}

// groupConfig is the tiny campaign every generated group runs in.
func groupConfig(window simclock.Duration) Config {
	cfg := QuickConfig()
	cfg.Servers = 8
	cfg.Racks, cfg.Windows = 2, 2
	cfg.WindowDur = window
	cfg.Warmup = 2 * simclock.Millisecond
	cfg.Workers = 2
	return cfg
}

// Generate implements quick.Generator. A third of the groups are forced
// to hold two peak readers.
func (groupCase) Generate(r *rand.Rand, _ int) reflect.Value {
	gc := groupCase{
		window:  8 * simclock.Millisecond,
		app:     workload.Apps[r.Intn(len(workload.Apps))],
		rackWin: r.Intn(4),
	}
	if r.Intn(2) == 0 {
		// 7.5025 ms ends half a tick short of a boundary; twice and four
		// times it are whole ticks.
		gc.window = 7502500 * simclock.Nanosecond
	}
	n := 1 + r.Intn(6)
	for i := 0; i < n; i++ {
		gc.plans = append(gc.plans, groupPlans[r.Intn(len(groupPlans))])
	}
	if n >= 2 && r.Intn(3) == 0 {
		gc.plans[0], gc.plans[n-1] = "all-ports+peak", "full"
	}
	for i := 0; i < n; i++ {
		gc.cells = append(gc.cells, Cell{
			App:      gc.app,
			RackID:   gc.rackWin / 2,
			Window:   gc.rackWin % 2,
			Interval: simclock.Micros(groupIntervals[r.Intn(len(groupIntervals))]),
			Duration: gc.window << r.Intn(3),
		})
	}
	if r.Intn(3) == 0 {
		at := simclock.Duration(r.Int63n(int64(gc.window)))
		gc.schedule = &fault.Schedule{Faults: []fault.Fault{
			{Kind: fault.KindStuckReads, At: at, Dur: gc.window / 4},
			{Kind: fault.KindReadLatency, At: at / 2, Dur: gc.window / 3, Factor: 4},
		}}
	}
	return reflect.ValueOf(gc)
}

// String names the case in a failure message.
func (gc groupCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/r%d/w%d window %v faults %v:", gc.app, gc.rackWin/2, gc.rackWin%2, gc.window, gc.schedule)
	for i, c := range gc.cells {
		fmt.Fprintf(&b, " [%s %v for %v]", gc.plans[i], c.Interval, c.Duration)
	}
	return b.String()
}

// groupRounds numbers the runs of TestGroupedCellsMatchReference, so each
// of `go test -count=N` draws new groups from a seed it reports.
var groupRounds atomic.Int64

// TestGroupedCellsMatchReference is the grouped runner's law: every cell
// of a group that shares one simulated rack captures exactly what a rack
// of its own gives it — samples, Table 1 statistics and fault schedule.
func TestGroupedCellsMatchReference(t *testing.T) {
	seed := groupRounds.Add(1)
	var cells, nets uint64
	law := func(gc groupCase) bool {
		cfg := groupConfig(gc.window)
		cfg.FaultSchedule = gc.schedule
		cfg.Metrics = obs.NewRegistry()
		exp, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		group := append([]Cell(nil), gc.cells...)
		for i := range group {
			group[i].Plan = exp.groupPlan(gc.plans[i], gc.app)
		}
		var mu sync.Mutex
		got := make([]*CellRun, len(group))
		err = exp.Runner().Run(context.Background(), group, func(i int, run *CellRun) error {
			mu.Lock()
			defer mu.Unlock()
			got[i] = run
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cells += uint64(len(gc.cells))
		nets += exp.windows.Value()
		ok := true
		for i, c := range group {
			want, err := exp.refRunCell(c)
			if err != nil {
				t.Fatal(err)
			}
			switch g := got[i]; {
			case !reflect.DeepEqual(g.Samples, want.Samples):
				t.Errorf("%v: cell %d: %d samples differ from the reference's %d", gc, i, len(g.Samples), len(want.Samples))
			case g.MissRate != want.MissRate || g.CPUBusy != want.CPUBusy:
				t.Errorf("%v: cell %d: miss %v busy %v, reference %v %v", gc, i, g.MissRate, g.CPUBusy, want.MissRate, want.CPUBusy)
			case !reflect.DeepEqual(g.Faults, want.Faults):
				t.Errorf("%v: cell %d: faults %v, reference %v", gc, i, g.Faults, want.Faults)
			default:
				continue
			}
			ok = false
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(law, cfg); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if nets >= cells {
		t.Errorf("seed %d: %d cells simulated %d racks; no group shared one, so the law is vacuous", seed, cells, nets)
	}
	t.Logf("seed %d: %d cells on %d simulated racks", seed, cells, nets)
}

// TestSimTick holds groupCells' tick to the simulator's.
func TestSimTick(t *testing.T) {
	exp, err := NewExperiment(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	net, err := exp.newNet(workload.Web, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Tick(); got != simTick {
		t.Fatalf("simnet ticks every %v, groupCells assumes %v", got, simTick)
	}
}

// TestCellCaptureReservation: a cell reserves room for the polls its
// poller can make, not one per interval. At 1 µs the full counter set
// polls once per base cost — several hundred µs on the default rack — so
// reserving a poll per µs held 319× the samples the cell captured.
func TestCellCaptureReservation(t *testing.T) {
	exp, err := NewExperiment(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{{App: workload.Web, Plan: FullCounters(), Interval: simclock.Microsecond}}
	runs, err := RunCells(context.Background(), exp.Runner(), cells, func(run *CellRun) ([2]int, error) {
		return [2]int{len(run.Samples), cap(run.Samples)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n, c := runs[0][0], runs[0][1]
	if n == 0 || c > 4*n {
		t.Errorf("cell captured %d samples into a reservation of %d (want ≤ 4×)", n, c)
	}
	t.Logf("%d samples in a reservation of %d", n, c)
}

// fleetCase is one generated fleet campaign.
type fleetCase struct {
	racks, shards        int
	app                  workload.App
	pseed                uint64
	batch, publish, ckpt int
	durable, oracle      bool
	faults               fault.Schedule
}

// Generate implements quick.Generator. Three cases in four are durable,
// and a durable case draws its strikes from fault.CrashMix. The batch
// sizes run from a few samples to more than a rack captures.
func (fleetCase) Generate(r *rand.Rand, _ int) reflect.Value {
	fc := fleetCase{
		racks:   1 + r.Intn(8),
		shards:  1 + r.Intn(5),
		app:     workload.Apps[r.Intn(len(workload.Apps))],
		pseed:   r.Uint64(),
		batch:   []int{0, 3, 4, 8, 16, 33}[r.Intn(6)],
		publish: r.Intn(6),
		ckpt:    r.Intn(6),
		durable: r.Intn(4) != 0,
		oracle:  r.Intn(2) == 0,
	}
	if fc.durable {
		fc.faults = fault.Generate(rng.New(r.Uint64()).Split("fleet"), fault.CrashMix(), fleetTestConfig(1).WindowDur)
	}
	return reflect.ValueOf(fc)
}

// fleetRounds numbers the runs of TestRunFleetMatchesReference, so each
// of `go test -count=N` draws new fleets from a seed it reports.
var fleetRounds atomic.Int64

// TestRunFleetMatchesReference is the split RunFleet's law: for generated
// fleets — volatile or durable, struck or not — plan → drive → finish
// returns the FleetResult refRunFleet returns and writes a fleet
// directory byte-identical to refRunFleet's. The fleets run on one
// worker, so that every shard sees its batches in one order: at more,
// what a struck shard ends up with depends on the interleaving — the
// epoch gate admits a redelivered batch again when all its samples carry
// its rack's newest timestamp — and two runs of the same code differ.
func TestRunFleetMatchesReference(t *testing.T) {
	seed := fleetRounds.Add(1)
	var cases, kills int
	run := func(fc fleetCase, fleet func(*Experiment, context.Context, FleetConfig) (*FleetResult, error)) (*FleetResult, map[string]string) {
		cfg := fleetTestConfig(fc.racks)
		cfg.Workers = 1
		e, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fcfg := FleetConfig{App: fc.app, Shards: fc.shards, PlacementSeed: fc.pseed, BatchSize: fc.batch,
			PublishEvery: fc.publish, CheckpointEvery: fc.ckpt, Oracle: fc.oracle, Faults: fc.faults}
		if fc.durable {
			fcfg.Dir = filepath.Join(t.TempDir(), "fleet")
		}
		res, err := fleet(e, context.Background(), fcfg)
		if err != nil {
			t.Fatalf("seed %d: %+v: %v", seed, fc, err)
		}
		files := map[string]string{}
		if fc.durable {
			for _, name := range fleetFiles(t, fcfg.Dir) {
				data, err := os.ReadFile(filepath.Join(fcfg.Dir, name))
				if err != nil {
					t.Fatal(err)
				}
				files[name] = string(data)
			}
		}
		return res, files
	}
	law := func(fc fleetCase) bool {
		got, gotFiles := run(fc, (*Experiment).RunFleet)
		want, wantFiles := run(fc, (*Experiment).refRunFleet)
		cases++
		kills += want.Kills
		switch {
		case !reflect.DeepEqual(got, want):
			t.Errorf("%+v: RunFleet returned\n%+v\nrefRunFleet\n%+v", fc, got, want)
		case !reflect.DeepEqual(gotFiles, wantFiles):
			for name, data := range wantFiles {
				if gotFiles[name] != data {
					t.Errorf("%+v: %s differs from refRunFleet's", fc, name)
				}
			}
			for name := range gotFiles {
				if _, ok := wantFiles[name]; !ok {
					t.Errorf("%+v: %s is not in refRunFleet's directory", fc, name)
				}
			}
		default:
			return true
		}
		return false
	}
	cfg := &quick.Config{MaxCount: 24, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(law, cfg); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if kills == 0 {
		t.Errorf("seed %d: no shard was struck in %d fleets, so the law is vacuous on resume", seed, cases)
	}
	t.Logf("seed %d: %d fleets, %d shard kills", seed, cases, kills)
}

// refFleetShard is refRunFleet's shard as it stood, keeping its own
// copies of the plan's placement, figures config, checkpoint path and
// cadence. It is one shard's runtime state. A mutex serializes delivery,
// publishing and crash/resume per shard; racks on different shards
// proceed in parallel.
type refFleetShard struct {
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
func (fs *refFleetShard) newShardPipeline(arch *trace.ArchiveWriter) (*collector.Shard, error) {
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
func (fs *refFleetShard) deliver(b *wire.Batch, agg *collector.Aggregator, publishEvery int) error {
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
func (fs *refFleetShard) resume() error {
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
func (fs *refFleetShard) finish(agg *collector.Aggregator) error {
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

// refRunFleet is RunFleet as one method, before it was split into
// plan → drive → finish; the law TestRunFleetMatchesReference holds the
// split to it. It executes one fleet campaign: every rack in the Experiment's
// Config runs one measurement window on the campaign runner, its sample
// stream is batched and round-tripped through the agent wire format,
// and the decoded batches are routed by the placement onto the shards.
func (e *Experiment) refRunFleet(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
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

	shards := make([]*refFleetShard, cfg.Shards)
	for k := range shards {
		fs := &refFleetShard{id: k, pl: &pl, figures: figCfg, every: cfg.CheckpointEvery}
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
		Shards:  cfg.Shards,
		Figures: figCfg,
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
