// Command mbsweep runs parameter sweeps over the reproduction and prints
// one table per sweep.
//
// Usage:
//
//	mbsweep -sweep interval|buffer|oversub|threshold|all [-app hadoop]
//	        [-window 250ms] [-servers 32] [-seed 1] [-workers N]
//
// Sweeps:
//
//	interval    polling interval vs. miss rate / visible bursts (Table 1+)
//	buffer      shared-buffer size vs. drops and peak occupancy (§7)
//	oversub     servers-per-rack vs. uplink heat (§6.3)
//	threshold   burst criterion vs. burst statistics (§5.4)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mburst/internal/core"
	"mburst/internal/simclock"
	"mburst/internal/sweep"
	"mburst/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command — flag parsing included — returning the exit
// code. Split from main so the tests drive the exact production path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("sweep", "all", "interval, buffer, oversub, threshold, all")
	appName := fs.String("app", "hadoop", "application rack type")
	window := fs.Duration("window", 0, "window duration (0 = default)")
	servers := fs.Int("servers", 0, "servers per rack (0 = default)")
	seed := fs.Uint64("seed", 0, "seed (0 = default)")
	workers := fs.Int("workers", 0, "concurrent campaign cells (0 = all CPUs)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	app, err := workload.ParseApp(*appName)
	if err != nil {
		fmt.Fprintf(stderr, "mbsweep: %v\n", err)
		return 2
	}
	cfg := core.DefaultConfig()
	cfg.Racks, cfg.Windows = 1, 1 // sweeps vary a knob, not the campaign size
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

	us := func(n int64) simclock.Duration { return simclock.Micros(n) }
	sweeps := []struct {
		name string
		run  func() (sweep.Result, error)
	}{
		{"interval", func() (sweep.Result, error) {
			return sweep.SamplingInterval(ctx, cfg, app,
				[]simclock.Duration{us(1), us(5), us(10), us(25), us(50), us(100), us(250), us(1000)})
		}},
		{"buffer", func() (sweep.Result, error) {
			return sweep.BufferSize(ctx, cfg, app,
				[]float64{128 << 10, 512 << 10, 1536 << 10, 4 << 20, 16 << 20})
		}},
		{"oversub", func() (sweep.Result, error) {
			return sweep.Oversubscription(ctx, cfg, app, []int{8, 16, 32, 48, 64})
		}},
		{"threshold", func() (sweep.Result, error) {
			return sweep.HotThreshold(ctx, cfg, app, []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
		}},
	}
	start := time.Now()
	ran := false
	for _, s := range sweeps {
		if *which != "all" && *which != s.name {
			continue
		}
		ran = true
		res, err := s.run()
		if err != nil {
			fmt.Fprintf(stderr, "mbsweep: %s: %v\n", s.name, err)
			return 1
		}
		fmt.Fprintln(stdout, res.Format())
		fmt.Fprintln(stdout)
	}
	if !ran {
		fmt.Fprintf(stderr, "mbsweep: unknown sweep %q (interval, buffer, oversub, threshold, all)\n", *which)
		return 2
	}
	fmt.Fprintf(stdout, "completed in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
