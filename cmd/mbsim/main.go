// Command mbsim runs a measurement campaign against a simulated rack and
// writes the captured counter samples to a trace directory that mbanalyze
// (and the analysis library) can consume.
//
// Usage:
//
//	mbsim -app web|cache|hadoop -out DIR [-plan randomport|allports|buffer]
//	      [-interval 25µs] [-racks N] [-windows N] [-window 250ms]
//	      [-servers N] [-seed N] [-workers N] [-http :9903]
//	      [-faults SPEC] [-trace FILE] [-tracerate R] [-tracecap N]
//
// Plans:
//
//	randomport  one random port's egress byte counter per window (the
//	            paper's Fig 3/4/6 single-counter campaign)
//	allports    every port's egress byte counter (Fig 9)
//	buffer      allports plus the shared-buffer peak register (Fig 10)
//
// With -http the campaign's live telemetry (windows recorded, samples
// captured, poller cost) is scrapeable at /metrics while it runs, and
// /debug/pprof/ profiles the simulation itself.
//
// -faults injects a deterministic fault schedule into every cell's poller
// (see internal/fault): either a fixed schedule such as
// "stuck@10ms+5ms,stall@30ms+10ms:500µs", or "rand:stuck=0.5,stall=0.5" to
// draw each cell's schedule from the campaign seed. Faulted traces remain
// reproducible: the same seed and spec yield byte-identical directories.
//
// -trace writes the campaign's pipeline span dump (internal/ptrace): one
// poll→encode→send→ingest→gate→archive→figures chain per persisted batch,
// with simclock-exact stage latencies. The dump is byte-identical across
// runs and -workers counts; cmd/mbtrace renders it. With -http the same
// spans are browsable live at /spans (JSON) and /tracez (the mbtrace report).
//
// -workers bounds how many (rack, window) cells simulate concurrently
// (0 = all CPUs); the recorded trace is byte-identical for every worker
// count. SIGINT/SIGTERM cancels the campaign and discards the partial
// trace directory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mburst/internal/collector"
	"mburst/internal/core"
	"mburst/internal/fault"
	"mburst/internal/obs"
	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}

// run is the whole command — flag parsing included — returning the exit
// code. Split from main so the tests drive the exact production path.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	logger := obs.DaemonLoggerTo(stderr, "mbsim")
	fs := flag.NewFlagSet("mbsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a parse error is logged below, as one line
	appName := fs.String("app", "web", "application rack type: web, cache, hadoop")
	out := fs.String("out", "", "output trace directory (required)")
	plan := fs.String("plan", "randomport", "counter plan: randomport, allports, buffer, full")
	interval := fs.Duration("interval", 25*time.Microsecond, "sampling interval")
	racks := fs.Int("racks", 0, "racks (0 = default)")
	windows := fs.Int("windows", 0, "windows per rack (0 = default)")
	window := fs.Duration("window", 0, "window duration (0 = default)")
	servers := fs.Int("servers", 0, "servers per rack (0 = default)")
	seed := fs.Uint64("seed", 0, "seed (0 = default)")
	workers := fs.Int("workers", 0, "concurrent campaign cells (0 = all CPUs)")
	faults := fs.String("faults", "", `fault schedule: "none", "kind@off+dur[:param],..." (kinds: stuck, latency, stall, restart, outage, disk), or "rand[:k=v,...]" for seeded per-cell generation`)
	httpAddr := fs.String("http", "", "debug HTTP address (/metrics, /stats, /healthz, /spans, /tracez, /debug/pprof/)")
	tracePath := fs.String("trace", "", "write the campaign's pipeline span dump to this file (mbtrace renders it)")
	traceRate := fs.Float64("tracerate", 0, "fraction of batch traces kept by the deterministic head sampler (0 = all)")
	traceCap := fs.Int("tracecap", 0, "span ring capacity (0 = sized to hold the whole campaign)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		logger.Error("parsing flags", "err", err)
		return 2
	}

	reg := obs.NewRegistry()
	obs.RegisterGoRuntime(reg)

	if *out == "" {
		logger.Error("-out is required")
		return 2
	}
	if *interval <= 0 {
		logger.Error("-interval must be positive", "interval", interval.String())
		return 2
	}
	app, err := workload.ParseApp(*appName)
	if err != nil {
		logger.Error("parsing app", "err", err)
		return 2
	}

	cfg := core.DefaultConfig()
	if *racks > 0 {
		cfg.Racks = *racks
	}
	if *windows > 0 {
		cfg.Windows = *windows
	}
	if *window > 0 {
		cfg.WindowDur = simclock.FromStd(*window)
	}
	if *servers > 0 {
		cfg.Servers = *servers
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	cfg.Metrics = reg
	if *faults != "" {
		if strings.HasPrefix(*faults, "rand") {
			gen, err := fault.ParseGen(*faults)
			if err != nil {
				logger.Error("parsing -faults", "err", err)
				return 2
			}
			cfg.Faults = &gen
		} else {
			sched, err := fault.ParseSchedule(*faults)
			if err != nil {
				logger.Error("parsing -faults", "err", err)
				return 2
			}
			if !sched.Empty() {
				cfg.FaultSchedule = &sched
			}
		}
	}
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		logger.Error("configuring experiment", "err", err)
		return 1
	}

	var countersFor core.CounterPlan
	switch *plan {
	case "randomport":
		countersFor = exp.RandomPortCounters(app)
	case "allports":
		countersFor = core.AllPortCounters(false)
	case "buffer":
		countersFor = core.AllPortCounters(true)
	case "full":
		countersFor = core.FullCounters()
	default:
		logger.Error("unknown plan", "plan", *plan)
		return 2
	}

	var tracer *ptrace.Tracer
	if *tracePath != "" || *httpAddr != "" {
		capacity := *traceCap
		if capacity <= 0 {
			capacity = campaignSpanCap(cfg, countersFor(exp.Rack(), 0, 0), simclock.FromStd(*interval))
		}
		tracer = ptrace.New(ptrace.Config{
			Capacity:   capacity,
			SampleRate: *traceRate,
			Seed:       cfg.Seed,
			Metrics:    reg,
		})
		cfg.Tracer = tracer
		// cfg was copied into exp at construction; rebuild with the tracer.
		if exp, err = core.NewExperiment(cfg); err != nil {
			logger.Error("configuring experiment", "err", err)
			return 1
		}
	}

	if *httpAddr != "" {
		mux := obs.NewDebugMux(reg, nil)
		mux.Handle("/spans", tracer.SpansHandler())
		mux.Handle("/tracez", tracer.TracezHandler())
		ds, err := obs.StartDebug(*httpAddr, mux)
		if err != nil {
			logger.Error("debug http", "addr", *httpAddr, "err", err)
			return 1
		}
		defer ds.Close()
		logger.Info("debug http listening", "url", fmt.Sprintf("http://%s/metrics", ds.Addr()))
	}

	start := time.Now()
	err = exp.RecordCampaign(ctx, app, *out, simclock.FromStd(*interval), "plan="+*plan, countersFor)
	if err != nil {
		logger.Error("recording campaign", "err", err)
		return 1
	}
	if *tracePath != "" {
		if err := writeTraceDump(tracer, *tracePath); err != nil {
			logger.Error("writing span dump", "path", *tracePath, "err", err)
			return 1
		}
		logger.Info("wrote span dump", "path", *tracePath,
			"spans", tracer.Recorded(), "evicted", tracer.Evicted())
	}
	logger.Info("recorded campaign",
		"app", app.String(), "windows", cfg.Racks*cfg.Windows, "window_dur", cfg.WindowDur.String(),
		"interval", interval.String(), "out", *out, "elapsed", time.Since(start).Round(time.Millisecond).String())
	return 0
}

// campaignSpanCap sizes the span ring to hold the whole campaign: one
// 7-span chain per persisted batch, with headroom so the auto-sized ring
// never evicts (eviction order would otherwise depend on completion
// order, breaking byte-identical dumps across -workers counts).
func campaignSpanCap(cfg core.Config, counters []collector.CounterSpec, interval simclock.Duration) int {
	samplesPerWindow := (int64(cfg.WindowDur/interval) + 1) * int64(len(counters))
	batchesPerWindow := samplesPerWindow/trace.BatchSize + 1
	spans := int64(cfg.Racks*cfg.Windows) * batchesPerWindow * 8
	const maxAuto = 1 << 22
	if spans > maxAuto {
		return maxAuto
	}
	if spans < ptrace.DefaultCapacity {
		return ptrace.DefaultCapacity
	}
	return int(spans)
}

// writeTraceDump writes the tracer's canonical span dump to path.
func writeTraceDump(t *ptrace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteDump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
