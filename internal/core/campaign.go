package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/fault"
	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/workload"
)

// Experiment runs measurement campaigns under one Config.
type Experiment struct {
	cfg Config

	// Campaign telemetry (nil-safe; see Config.Metrics). All pollers the
	// experiment builds share pollerM, aggregating poll/miss/cost totals
	// across windows.
	pollerM *collector.PollerMetrics
	windows *obs.Counter // rack-windows simulated, one per net built
	samples *obs.Counter
	// Runner telemetry: cells currently executing and cells completed.
	cellsInFlight  *obs.Gauge
	cellsCompleted *obs.Counter
	// Fault-injection telemetry, shared by every cell's injector.
	faultM *fault.Metrics
}

// NewExperiment validates cfg and returns an Experiment.
func NewExperiment(cfg Config) (*Experiment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Experiment{cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		e.pollerM = collector.NewPollerMetrics(reg)
		e.windows = reg.Counter("mburst_campaign_windows_total",
			"Rack-windows simulated across campaigns; cells that share one poll a single simulation.")
		e.samples = reg.Counter("mburst_campaign_samples_total",
			"Counter samples captured across campaigns.")
		e.cellsInFlight = reg.Gauge("mburst_runner_cells_in_flight",
			"Campaign cells currently executing on the worker pool.")
		e.cellsCompleted = reg.Counter("mburst_runner_cells_completed_total",
			"Campaign cells completed by the worker pool.")
		if cfg.Faults != nil || cfg.FaultSchedule != nil {
			e.faultM = fault.NewMetrics(reg)
		}
	}
	return e, nil
}

// Config returns the experiment's configuration.
func (e *Experiment) Config() Config { return e.cfg }

// Rack returns the rack topology used throughout the experiment.
func (e *Experiment) Rack() topo.Rack { return topo.Default(e.cfg.Servers) }

// loadScale returns the diurnal load factor for a window: a day-shaped
// sinusoid between ~0.65 and ~1.35 of nominal load. It is always on, as
// the paper's windows span a day (§4.2); a one-window campaign runs at
// nominal load.
func (e *Experiment) loadScale(window int) float64 {
	if e.cfg.Windows <= 1 {
		return 1
	}
	phase := 2 * math.Pi * float64(window) / float64(e.cfg.Windows)
	return 1 + 0.35*math.Sin(phase)
}

// windowSeed derives the deterministic seed for one (app, rack, window).
func (e *Experiment) windowSeed(app workload.App, rack, window int) uint64 {
	return rng.New(e.cfg.Seed).Split(fmt.Sprintf("%s/r%d/w%d", app, rack, window)).Uint64()
}

// newNet builds the simulated rack for one (app, rack, window).
func (e *Experiment) newNet(app workload.App, rack, window int) (*simnet.Net, error) {
	return simnet.New(simnet.Config{
		Rack:        topo.Default(e.cfg.Servers),
		Params:      e.cfg.params(app),
		Seed:        e.windowSeed(app, rack, window),
		RackID:      rack,
		LoadScale:   e.loadScale(window),
		Balancer:    e.cfg.Balancer,
		BufferBytes: e.cfg.BufferBytes,
	})
}

// randomPort picks the window's measured port, mirroring §4.2 ("for each
// rack, we pick a random port").
func (e *Experiment) randomPort(app workload.App, rack, window int) int {
	src := rng.New(e.cfg.Seed).Split(fmt.Sprintf("port/%s/r%d/w%d", app, rack, window))
	return src.Intn(topo.Default(e.cfg.Servers).NumPorts())
}

// ByteCampaignInterval is the paper's finest byte-counter interval.
const ByteCampaignInterval = 25 * simclock.Microsecond

// RecordCampaign runs a campaign for one app and persists it as a trace
// directory (see internal/trace). plan chooses the counters per
// (rack, window) — e.g. a random port's byte counter, or every port.
// Windows are indexed rack-major: index = rack*Windows + window; each
// window is an independent archive segment, so the directory is
// byte-identical regardless of worker count or completion order. A
// canceled or failed campaign discards everything it wrote — partial
// results are removed, not left as a half-trace.
func (e *Experiment) RecordCampaign(ctx context.Context, app workload.App, dir string, interval simclock.Duration, notes string, plan CounterPlan) error {
	if plan == nil {
		return fmt.Errorf("core: RecordCampaign without a counter plan")
	}
	if interval <= 0 {
		interval = ByteCampaignInterval
	}
	rack := e.Rack()
	probe := plan(rack, 0, 0)
	w, err := trace.Create(dir, trace.Meta{
		App:         app.String(),
		NumServers:  rack.NumServers,
		NumUplinks:  rack.NumUplinks,
		ServerSpeed: rack.ServerSpeed,
		UplinkSpeed: rack.UplinkSpeed,
		Interval:    interval,
		WindowDur:   e.cfg.WindowDur,
		Windows:     e.cfg.Racks * e.cfg.Windows,
		Seed:        e.cfg.Seed,
		Counters:    probe,
		Notes:       notes,
	}, nil)
	if err != nil {
		return err
	}
	var mu sync.Mutex // trace.Writer is not safe for concurrent WriteWindow
	cells := e.campaignCells([]workload.App{app}, plan, interval, 0)
	err = e.Runner().Run(ctx, cells, func(i int, run *CellRun) error {
		mu.Lock()
		defer mu.Unlock()
		if err := w.WriteWindow(i, uint32(run.Cell.RackID), run.Samples); err != nil {
			return err
		}
		recordCellTrace(e.cfg.Tracer, run, e.cfg.Warmup)
		return nil
	})
	if err != nil {
		w.Discard()
		return err
	}
	return nil
}

// RandomPortCounters returns a CounterPlan polling one random port's
// egress byte counter per window — the Fig 3/4/6 campaign plan.
func (e *Experiment) RandomPortCounters(app workload.App) CounterPlan {
	return func(_ topo.Rack, rackID, window int) []collector.CounterSpec {
		return []collector.CounterSpec{{
			Port: e.randomPort(app, rackID, window),
			Dir:  asic.TX,
			Kind: asic.KindBytes,
		}}
	}
}

// AllPortCounters returns a CounterPlan polling every port's egress byte
// counter (plus the shared-buffer peak if withBuffer) — the Fig 9/10
// campaign plan.
func AllPortCounters(withBuffer bool) CounterPlan {
	return func(rack topo.Rack, _, _ int) []collector.CounterSpec {
		var out []collector.CounterSpec
		if withBuffer {
			out = append(out, collector.CounterSpec{Kind: asic.KindBufferPeak})
		}
		for p := 0; p < rack.NumPorts(); p++ {
			out = append(out, collector.CounterSpec{Port: p, Dir: asic.TX, Kind: asic.KindBytes})
		}
		return out
	}
}

// FullCounters returns a CounterPlan polling the paper's complete
// counter set: every port's egress byte counter and RMON size-bin
// histogram plus the shared-buffer peak — the heaviest realistic agent
// configuration, and the reference workload for the wire-format gates.
func FullCounters() CounterPlan {
	return func(rack topo.Rack, _, _ int) []collector.CounterSpec {
		out := []collector.CounterSpec{{Kind: asic.KindBufferPeak}}
		for p := 0; p < rack.NumPorts(); p++ {
			out = append(out,
				collector.CounterSpec{Port: p, Dir: asic.TX, Kind: asic.KindBytes},
				collector.CounterSpec{Port: p, Dir: asic.TX, Kind: asic.KindSizeBins})
		}
		return out
	}
}
