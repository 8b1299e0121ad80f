// Package core is the public façade of the reproduction: it orchestrates
// measurement campaigns over simulated racks and computes every table and
// figure of the paper's evaluation.
//
// The methodology mirrors §4.2. A campaign covers several racks per
// application class; for each rack and each "hour" window it builds a
// fresh deterministic rack simulation (with a diurnal load factor),
// attaches the high-resolution collection framework to the experiment's
// counters, records a short window, and feeds the samples to the analysis
// package. The paper used 10 racks × 24 windows × 2 minutes per
// application; the defaults here are scaled down (~60×) but every scale
// knob is in Config.
//
// Experiment.RunAll produces every paper artifact in one pass (a Report:
// Figs 1–10, Tables 1–2 and the §7 implications), each figure one job of
// figures.go; Fig9HotPortShare also runs its job alone, for the
// oversubscription sweep. The root experiments_test.go holds the report
// to EXPERIMENTS.md.
package core

import (
	"fmt"

	"mburst/internal/fault"
	"mburst/internal/obs"
	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/workload"
)

// Config scales and parameterizes an Experiment.
type Config struct {
	// Racks is the number of racks measured per application class
	// (the paper used 10).
	Racks int
	// Windows is the number of measurement windows per rack (the paper
	// used 24, one random 2-minute slice per hour of a day).
	Windows int
	// WindowDur is each window's recorded duration.
	WindowDur simclock.Duration
	// Warmup runs before recording so queues and flows reach steady
	// state.
	Warmup simclock.Duration
	// Servers is the number of servers per rack.
	Servers int
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Balancer selects the uplink balancing scheme (ablations).
	Balancer simnet.BalancerMode
	// Paced enables the §7 pacing ablation in all workloads.
	Paced bool
	// BufferBytes overrides the ASIC shared buffer size (0 = default).
	BufferBytes float64
	// Workers bounds the campaign runner's worker pool: how many
	// (app, rack, window) simulations run concurrently, each serving
	// every cell of its rack-window (see Runner). 0 means
	// runtime.GOMAXPROCS(0). Campaign output is byte-identical for every
	// worker count (see Runner).
	Workers int
	// Metrics, when non-nil, receives campaign telemetry: every poller the
	// experiment builds reports into one shared PollerMetrics set, and
	// window/sample progress counters are updated as campaigns run. Nil
	// (the default) keeps campaigns telemetry-free at no cost.
	Metrics *obs.Registry
	// Faults, when non-nil, injects a randomized fault schedule into every
	// campaign cell's poller. Each cell draws its own schedule from the
	// experiment seed (stream "fault/<app>/r<rack>/w<window>"), so chaos
	// campaigns stay a pure function of (Config, Cell) and byte-identical
	// across worker counts. Mutually exclusive with FaultSchedule.
	Faults *fault.GenConfig
	// FaultSchedule, when non-nil, applies one fixed fault schedule to every
	// cell — the reproducible-single-scenario counterpart to Faults. Offsets
	// are relative to each cell's recording start.
	FaultSchedule *fault.Schedule
	// Tracer, when non-nil, records the full pipeline span chain for every
	// batch RecordCampaign persists (see internal/ptrace). Span times are
	// pure functions of batch content, so the dump is byte-identical across
	// worker counts.
	Tracer *ptrace.Tracer
}

// DefaultConfig returns the standard scaled-down reproduction: 3 racks ×
// 8 windows × 250 ms per application (≈ 6 s of 5 µs-resolution simulation
// per app).
func DefaultConfig() Config {
	return Config{
		Racks:     3,
		Windows:   8,
		WindowDur: 250 * simclock.Millisecond,
		Warmup:    25 * simclock.Millisecond,
		Servers:   32,
		Seed:      1,
	}
}

// QuickConfig returns a minimal configuration for tests and examples:
// 1 rack × 2 windows × 100 ms.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Racks = 1
	cfg.Windows = 2
	cfg.WindowDur = 100 * simclock.Millisecond
	cfg.Warmup = 10 * simclock.Millisecond
	cfg.Servers = 16
	return cfg
}

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	switch {
	case c.Racks <= 0:
		return fmt.Errorf("core: Racks = %d", c.Racks)
	case c.Windows <= 0:
		return fmt.Errorf("core: Windows = %d", c.Windows)
	case c.WindowDur <= 0:
		return fmt.Errorf("core: WindowDur = %v", c.WindowDur)
	case c.Warmup < 0:
		return fmt.Errorf("core: Warmup = %v", c.Warmup)
	case c.Servers <= 0:
		return fmt.Errorf("core: Servers = %d", c.Servers)
	case c.Workers < 0:
		return fmt.Errorf("core: Workers = %d", c.Workers)
	case c.Faults != nil && c.FaultSchedule != nil:
		return fmt.Errorf("core: Faults and FaultSchedule are mutually exclusive")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.FaultSchedule != nil {
		if err := c.FaultSchedule.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// ResolvedParams returns the workload parameters the experiment will use
// for an app, applying the pacing ablation. Exposed so higher-level
// harnesses (internal/sweep) build identical rack simulations.
func (c Config) ResolvedParams(app workload.App) workload.Params {
	return c.params(app)
}

// params returns the workload parameters for an app: its defaults, with
// the pacing ablation applied.
func (c Config) params(app workload.App) workload.Params {
	p := workload.DefaultParams(app)
	if c.Paced {
		p.Paced = true
		if p.PacedCap == 0 {
			p.PacedCap = 0.95
		}
	}
	return p
}
