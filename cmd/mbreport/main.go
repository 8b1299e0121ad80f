// Command mbreport regenerates every table and figure of the paper in one
// run and prints a paper-vs-measured summary.
//
// Usage:
//
//	mbreport [-quick] [-racks N] [-windows N] [-window 250ms] [-servers N]
//	         [-seed N] [-workers N] [-balancer flow|flowlet|roundrobin]
//	         [-paced]
//
// The defaults run the standard scaled-down campaign (see DESIGN.md §1);
// -quick runs the minimal configuration used by the test suite.
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
	"mburst/internal/simnet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command — flag parsing included — returning the exit
// code. Split from main so the tests drive the exact production path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use the minimal quick configuration")
	racks := fs.Int("racks", 0, "racks per application (0 = config default)")
	windows := fs.Int("windows", 0, "windows per rack (0 = config default)")
	window := fs.Duration("window", 0, "window duration (0 = config default)")
	servers := fs.Int("servers", 0, "servers per rack (0 = config default)")
	seed := fs.Uint64("seed", 0, "experiment seed (0 = config default)")
	workers := fs.Int("workers", 0, "concurrent rack-window simulations (0 = all CPUs)")
	balancer := fs.String("balancer", "flow", "uplink balancer: flow, flowlet, roundrobin")
	paced := fs.Bool("paced", false, "enable the pacing ablation")
	plots := fs.Bool("plot", false, "also render figures as terminal graphics")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := core.DefaultConfig()
	if *quick {
		cfg = core.QuickConfig()
	}
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
	cfg.Paced = *paced
	switch *balancer {
	case "flow":
		cfg.Balancer = simnet.BalanceFlow
	case "flowlet":
		cfg.Balancer = simnet.BalanceFlowlet
	case "roundrobin":
		cfg.Balancer = simnet.BalanceRoundRobin
	default:
		fmt.Fprintf(stderr, "mbreport: unknown balancer %q\n", *balancer)
		return 2
	}

	exp, err := core.NewExperiment(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "mbreport: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "mburst report: %d racks × %d windows × %v per app, %d servers/rack, seed %d\n\n",
		cfg.Racks, cfg.Windows, cfg.WindowDur, cfg.Servers, cfg.Seed)
	start := time.Now()
	rep, err := exp.RunAll(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "mbreport: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, rep.Format())
	if *plots {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, rep.FormatPlots())
	}
	fmt.Fprintf(stdout, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
