package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/fault"
	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/topo"
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
