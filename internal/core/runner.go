package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"sync"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/fault"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// CounterPlan chooses the counters polled for one campaign cell. It is the
// single plan shape shared by byte campaigns, trace recording, the figure
// harnesses and the sweeps; the probe plan(rack, 0, 0) is what
// RecordCampaign persists into trace.Meta.Counters.
type CounterPlan func(rack topo.Rack, rackID, window int) []collector.CounterSpec

// Cell is one unit of campaign work: a single (app, rack, window)
// measurement. Its rack simulation and every random stream derive from
// its coordinates alone, so cells are embarrassingly parallel; the paper's
// data sets (§4.2: 720 two-minute windows per app) are exactly this shape.
// Cells of one Runner.Run that share an (app, rack, window) poll one
// simulated rack, as the paper's analyses all read the same production
// racks (see Runner).
type Cell struct {
	// App selects the workload generating the rack's traffic.
	App workload.App
	// RackID / Window locate the cell in the campaign grid and determine
	// its seeds.
	RackID int
	Window int
	// Plan chooses the polled counters (nil is an error).
	Plan CounterPlan
	// Interval is the sampling interval (0 = ByteCampaignInterval).
	Interval simclock.Duration
	// Duration is the recorded duration (0 = Config.WindowDur). Fig 2's
	// continuous run is the one campaign that overrides it.
	Duration simclock.Duration
}

// describe locates the cell in error messages.
func (c Cell) describe() string {
	return fmt.Sprintf("%s/r%d/w%d", c.App, c.RackID, c.Window)
}

// CellRun is the raw outcome of one executed cell, handed to the collect
// callback on the worker goroutine that ran it.
type CellRun struct {
	Cell Cell
	// Net is the rack simulation the cell polled, positioned at the end of
	// the cell's recorded window (port speeds, drop totals and rack shape
	// are readable). Cells that share a rack-window share the Net, so a
	// visitor reads it and never advances it.
	Net *simnet.Net
	// Samples are the captured counter samples in emission order.
	Samples []wire.Sample
	// MissRate / CPUBusy are the cell poller's Table 1 statistics.
	MissRate float64
	CPUBusy  float64
	// Faults is the fault schedule injected into this cell's poller (empty
	// when the campaign runs fault-free).
	Faults fault.Schedule
}

// Runner fans campaign cells across a bounded worker pool. Cells that
// share an (app, rack, window) form one group and poll one simulated rack,
// one poller per cell: a poller only reads the rack, so each cell captures
// exactly what a rack of its own would give it
// (TestGroupedCellsMatchReference). A group is the pool's unit of work.
// Results are assembled in deterministic cell order regardless of the
// worker count, so a campaign's output is byte-identical whether it runs
// serially or on every core — the repository's reproducibility guarantee
// extends to the parallel path.
type Runner struct {
	e       *Experiment
	workers int
}

// Runner returns a runner over the experiment's worker pool
// (Config.Workers; 0 = runtime.GOMAXPROCS(0)).
func (e *Experiment) Runner() *Runner {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Runner{e: e, workers: w}
}

// Workers returns the pool's bound.
func (r *Runner) Workers() int { return r.workers }

// Run executes every cell on the pool and calls visit(i, run) on the
// worker goroutine as each cell completes. visit implementations must be
// safe for concurrent calls with distinct indices (writing results[i] is
// the intended shape; shared sinks need their own lock). The first
// cancellation or error stops new groups from starting; already-running
// groups finish and their errors are aggregated.
func (r *Runner) Run(ctx context.Context, cells []Cell, visit func(i int, run *CellRun) error) error {
	if ctx == nil {
		//lint:ignore ctxroot nil-ctx convenience fallback for library callers; no parent to thread
		ctx = context.Background()
	}
	if len(cells) == 0 {
		return ctx.Err()
	}
	groups := r.e.groupCells(cells)
	workers := r.workers
	if workers > len(groups) {
		workers = len(groups)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
		cancel()
	}

	jobs := make(chan *cellGroup)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				if cctx.Err() != nil {
					continue // drain remaining groups without running them
				}
				first := cells[g.members[0].i]
				// Label the worker goroutine while it runs this group so CPU
				// profiles attribute simulation time to campaign cells.
				labels := pprof.Labels(
					"cell", first.describe(),
					"app", first.App.String(),
					"rack", strconv.Itoa(first.RackID),
				)
				pprof.Do(cctx, labels, func(context.Context) {
					pending := len(g.members)
					r.e.cellsInFlight.Add(float64(pending))
					err := r.e.runGroup(cells, g, func(i int, run *CellRun) error {
						err := visit(i, run)
						pending--
						r.e.cellsInFlight.Add(-1)
						if err == nil {
							r.e.cellsCompleted.Inc()
						}
						return err
					})
					r.e.cellsInFlight.Add(-float64(pending))
					if err != nil {
						fail(err)
					}
				})
			}
		}()
	}
	for _, g := range groups {
		jobs <- g
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: campaign canceled: %w", err)
	}
	return errors.Join(errs...)
}

// RunCells executes every cell on the runner's pool, reduces each raw run
// to its per-cell result via collect (called on the worker goroutine), and
// returns the results in cell order.
func RunCells[T any](ctx context.Context, r *Runner, cells []Cell, collect func(run *CellRun) (T, error)) ([]T, error) {
	var out []T
	err := r.runJobs(ctx, newJob("", cells, collect, func(v []T) error {
		out = v
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// job is one harness's share of a campaign: its cells, the reduction of
// each cell's run (on the worker goroutine that ran it), and a finish step
// that assembles the harness's result once every cell is reduced.
type job struct {
	cells   []Cell
	collect func(i int, run *CellRun) error
	finish  func() error
}

// newJob builds a job whose collect reduces each run to a T and whose
// finish receives the reductions in cell order. name prefixes the job's
// errors.
func newJob[T any](name string, cells []Cell, collect func(run *CellRun) (T, error), finish func([]T) error) *job {
	out := make([]T, len(cells))
	named := func(err error) error {
		if err == nil || name == "" {
			return err
		}
		return fmt.Errorf("%s: %w", name, err)
	}
	return &job{
		cells: cells,
		collect: func(i int, run *CellRun) error {
			v, err := collect(run)
			out[i] = v
			return named(err)
		},
		finish: func() error { return named(finish(out)) },
	}
}

// runJobs runs every job's cells in one Run — so cells of different jobs
// that share a rack-window poll one simulated rack — then finishes the
// jobs in order.
func (r *Runner) runJobs(ctx context.Context, jobs ...*job) error {
	type slot struct {
		j *job
		i int
	}
	var (
		cells []Cell
		slots []slot
	)
	for _, j := range jobs {
		for i, c := range j.cells {
			cells = append(cells, c)
			slots = append(slots, slot{j, i})
		}
	}
	err := r.Run(ctx, cells, func(i int, run *CellRun) error {
		return slots[i].j.collect(slots[i].i, run)
	})
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if err := j.finish(); err != nil {
			return err
		}
	}
	return nil
}

// runJob runs one harness's job alone — Fig9HotPortShare's path, and the
// same one RunAll takes with every job at once.
func runJob[R any](ctx context.Context, e *Experiment, build func(*R) *job) (R, error) {
	var res R
	err := e.Runner().runJobs(ctx, build(&res))
	return res, err
}

// captureCap bounds the samples one cell reserves up front; extreme
// interval/duration ratios (Table 1's 1 µs rows mostly miss) must not
// reserve memory for samples that will never exist.
const captureCap = 1 << 20

// captureSize is the sample capacity a cell reserves: one sample per
// counter per poll, where polls are at most one per interval and never
// closer than the poller's base cost apart, capped at captureCap in all.
func captureSize(dur, interval, baseCost simclock.Duration, counters int) int {
	n := (int64(dur/max(interval, baseCost)) + 1) * int64(counters)
	return int(min(n, captureCap))
}

// simTick is simnet's native tick (simnet.Net.Tick; TestSimTick holds the
// two equal). A recording that is not a whole number of ticks ends inside
// one.
const simTick = 5 * simclock.Microsecond

// groupMember is one cell of a group with its defaults applied and its
// plan's counters resolved.
type groupMember struct {
	i        int // index in the Run's cells
	counters []collector.CounterSpec
	interval simclock.Duration
	dur      simclock.Duration
}

// cellGroup is the cells one simulated rack serves, in cell order.
type cellGroup struct {
	members []groupMember
	dur     simclock.Duration // the longest member's
	peak    bool              // a member reads the clear-on-read buffer-peak register
}

// rackWindow keys the cells that may share one simulated rack. offTick is
// the duration of a cell that ends inside a tick (zero otherwise): a
// longer cell would need that tick whole, so such a cell shares only
// with cells of its own duration.
type rackWindow struct {
	app          workload.App
	rack, window int
	offTick      simclock.Duration
}

// groupCells partitions a Run's cells into the groups the pool runs: the
// cells of one rack-window in first-appearance order, except that a cell
// reading the buffer-peak register joins only a group with no other peak
// reader — two readers would split one register's peaks between them.
// Groups go to the pool longest first, so a short one runs last. A cell
// without a plan is a group of its own, which runGroup fails.
func (e *Experiment) groupCells(cells []Cell) []*cellGroup {
	rack := e.Rack()
	var groups []*cellGroup
	open := make(map[rackWindow][]*cellGroup)
	for i, c := range cells {
		m := groupMember{i: i, interval: c.Interval, dur: c.Duration}
		if m.interval <= 0 {
			m.interval = ByteCampaignInterval
		}
		if m.dur <= 0 {
			m.dur = e.cfg.WindowDur
		}
		if c.Plan == nil {
			groups = append(groups, &cellGroup{members: []groupMember{m}, dur: m.dur})
			continue
		}
		m.counters = c.Plan(rack, c.RackID, c.Window)
		peak := slices.ContainsFunc(m.counters, func(s collector.CounterSpec) bool {
			return s.Kind == asic.KindBufferPeak
		})
		key := rackWindow{app: c.App, rack: c.RackID, window: c.Window}
		if m.dur%simTick != 0 {
			key.offTick = m.dur
		}
		var g *cellGroup
		for _, o := range open[key] {
			if !peak || !o.peak {
				g = o
				break
			}
		}
		if g == nil {
			g = &cellGroup{}
			open[key] = append(open[key], g)
			groups = append(groups, g)
		}
		g.members = append(g.members, m)
		g.dur = max(g.dur, m.dur)
		g.peak = g.peak || peak
	}
	sort.SliceStable(groups, func(a, b int) bool { return groups[a].dur > groups[b].dur })
	return groups
}

// runGroup simulates one group's rack-window once. It builds the rack and
// every member's poller before any traffic (a poller switches on the
// packet counters it reads), warms the rack up, clears the peak register
// so warm-up bursts don't leak into a first sample, installs the pollers
// in cell order, then advances to each member's end in turn. At an end
// the members ending there stop polling and visit receives each one's run
// — built at that instant, as CPUBusyFrac reads the clock — after which
// the group lets go of its samples. A poller's randomness derives from
// the cell coordinates and interval (not a shared stream), so every
// member's result is a pure function of (Config, Cell).
func (e *Experiment) runGroup(cells []Cell, g *cellGroup, visit func(i int, run *CellRun) error) error {
	first := cells[g.members[0].i]
	if first.Plan == nil {
		return cellError(first, errors.New("no counter plan"))
	}
	net, err := e.newNet(first.App, first.RackID, first.Window)
	if err != nil {
		return cellError(first, err)
	}
	type member struct {
		groupMember
		p        *collector.Poller
		captured []wire.Sample
		faults   fault.Schedule
	}
	members := make([]*member, len(g.members))
	for k, gm := range g.members {
		c := cells[gm.i]
		m := &member{groupMember: gm, faults: e.cellFaults(c, gm.dur)}
		var pollFault collector.PollFault
		if !m.faults.Empty() {
			pollFault = fault.NewPollerInjector(m.faults, e.faultM)
		}
		m.p, err = collector.NewPoller(collector.PollerConfig{
			Interval:      m.interval,
			Counters:      m.counters,
			DedicatedCore: true,
			Metrics:       e.pollerM,
			Fault:         pollFault,
		}, net.Switch(), e.pollSource(c, m.interval), collector.EmitterFunc(func(s wire.Sample) {
			m.captured = append(m.captured, s)
		}))
		if err != nil {
			return cellError(c, err)
		}
		m.captured = make([]wire.Sample, 0, captureSize(m.dur, m.interval, m.p.BaseCost(), len(m.counters)))
		members[k] = m
	}
	e.windows.Inc()
	net.Run(e.cfg.Warmup)
	net.Switch().ReadPeakBufferAndClear()
	for _, m := range members {
		m.p.Install(net.Scheduler())
	}
	sort.SliceStable(members, func(a, b int) bool { return members[a].dur < members[b].dur })
	var at simclock.Duration
	for len(members) > 0 {
		end := members[0].dur
		net.Run(end - at)
		at = end
		n := 0
		for n < len(members) && members[n].dur == end {
			members[n].p.Stop()
			n++
		}
		for _, m := range members[:n] {
			run := &CellRun{
				Cell:     cells[m.i],
				Net:      net,
				Samples:  m.captured,
				MissRate: m.p.MissRate(),
				CPUBusy:  m.p.CPUBusyFrac(),
				Faults:   m.faults,
			}
			m.captured = nil
			e.samples.Add(uint64(len(run.Samples)))
			if err := visit(m.i, run); err != nil {
				return cellError(run.Cell, err)
			}
		}
		members = members[n:]
	}
	return nil
}

// cellError names the failing cell.
func cellError(c Cell, err error) error {
	return fmt.Errorf("core: cell %s: %w", c.describe(), err)
}

// cellFaults derives the fault schedule for one cell. A fixed
// Config.FaultSchedule applies verbatim to every cell; a Config.Faults
// generator draws each cell's schedule from its own seed stream, disjoint
// from the poll-jitter stream, so faulted campaigns stay reproducible.
func (e *Experiment) cellFaults(c Cell, dur simclock.Duration) fault.Schedule {
	switch {
	case e.cfg.FaultSchedule != nil:
		return *e.cfg.FaultSchedule
	case e.cfg.Faults != nil:
		src := rng.New(e.cfg.Seed).Split(fmt.Sprintf("fault/%s/r%d/w%d", c.App, c.RackID, c.Window))
		return fault.Generate(src, *e.cfg.Faults, dur)
	}
	return fault.Schedule{}
}

// pollSource derives the poller's jitter stream for one cell. Including
// the interval keeps cells that differ only in sampling rate (Table 1, the
// interval sweep) on distinct streams.
func (e *Experiment) pollSource(c Cell, interval simclock.Duration) *rng.Source {
	return rng.New(e.cfg.Seed).Split(fmt.Sprintf("poll/%s/r%d/w%d/%d", c.App, c.RackID, c.Window, int64(interval)))
}

// campaignCells builds the standard rack-major campaign grid — for each
// app, every (rack, window) pair in order — the one cell layout every
// figure and recording campaign shares.
func (e *Experiment) campaignCells(apps []workload.App, plan CounterPlan, interval, dur simclock.Duration) []Cell {
	cells := make([]Cell, 0, len(apps)*e.cfg.Racks*e.cfg.Windows)
	for _, app := range apps {
		for rack := 0; rack < e.cfg.Racks; rack++ {
			for w := 0; w < e.cfg.Windows; w++ {
				cells = append(cells, Cell{
					App: app, RackID: rack, Window: w,
					Plan: plan, Interval: interval, Duration: dur,
				})
			}
		}
	}
	return cells
}
