// Command mbfleet runs an in-process fleet campaign: N simulated racks
// fanned across the campaign runner, their agent streams routed by a
// rendezvous placement onto M collector shards, and the shards' cuts
// merged by the fleet aggregator into fleet-wide live figures.
//
// Usage:
//
//	mbfleet -racks 1000 -shards 8 [-app web] [-window 2ms] [-warmup 500µs]
//	        [-servers 8] [-seed N] [-pseed N] [-interval 25µs]
//	        [-batch 2048] [-publish 8] [-workers N]
//	        [-out DIR] [-ckpt N] [-faults SPEC] [-oracle]
//
// With -out the campaign lays down a fleet directory: campaign.json
// (stamped with the versioned placement, whose shard names are the
// directory names) and one durable archive per shard, each with its own
// checkpoint. mbdump reads such a directory like any campaign, one shard
// archive after the other.
//
// -faults schedules shard strikes (kill@, torn@:xF, shortw@, offsets
// within the window duration), assigned round-robin over shards; each
// struck shard resumes from its archive + checkpoint and the harness
// re-delivers the agent spool horizon. Requires -out.
//
// -oracle also runs one unsharded collector over the identical decoded
// stream and verifies the fleet state is byte-identical — the
// correctness gate the CI fleet campaign runs with.
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
	"mburst/internal/fault"
	"mburst/internal/obs"
	"mburst/internal/simclock"
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
	logger := obs.DaemonLoggerTo(stderr, "mbfleet")
	fs := flag.NewFlagSet("mbfleet", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a parse error is logged below, as one line
	appName := fs.String("app", "web", "application rack type: web, cache, hadoop")
	racks := fs.Int("racks", 100, "fleet rack count")
	shards := fs.Int("shards", 4, "collector shard count")
	window := fs.Duration("window", 2*time.Millisecond, "per-rack measurement window")
	warmup := fs.Duration("warmup", 500*time.Microsecond, "per-rack warmup before recording")
	servers := fs.Int("servers", 8, "servers per rack")
	seed := fs.Uint64("seed", 1, "campaign seed")
	pseed := fs.Uint64("pseed", 1, "placement seed (rendezvous hashing)")
	interval := fs.Duration("interval", 25*time.Microsecond, "sampling interval")
	batch := fs.Int("batch", 0, "agent samples per batch (0 = collector default)")
	publish := fs.Int("publish", 0, "shard publish cadence in batches (0 = default)")
	workers := fs.Int("workers", 0, "concurrent rack cells (0 = all CPUs)")
	out := fs.String("out", "", "fleet campaign directory (durable shards; required with -faults)")
	ckpt := fs.Int("ckpt", 0, "shard checkpoint cadence in batches (0 = default)")
	faults := fs.String("faults", "", `shard strike schedule: "kill@1ms,torn@2ms:x0.5,shortw@3ms"`)
	oracle := fs.Bool("oracle", false, "verify byte-exactness against a single-collector oracle")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		logger.Error("parsing flags", "err", err)
		return 2
	}

	app, err := workload.ParseApp(*appName)
	if err != nil {
		logger.Error("parsing app", "err", err)
		return 2
	}

	cfg := core.Config{
		Racks:     *racks,
		Windows:   1,
		WindowDur: simclock.FromStd(*window),
		Warmup:    simclock.FromStd(*warmup),
		Servers:   *servers,
		Seed:      *seed,
		Workers:   *workers,
	}
	fcfg := core.FleetConfig{
		App:             app,
		Shards:          *shards,
		PlacementSeed:   *pseed,
		Interval:        simclock.FromStd(*interval),
		BatchSize:       *batch,
		PublishEvery:    *publish,
		Dir:             *out,
		CheckpointEvery: *ckpt,
		Oracle:          *oracle,
		Notes:           "mbfleet",
	}
	if *faults != "" {
		sched, err := fault.ParseSchedule(*faults)
		if err != nil {
			logger.Error("parsing -faults", "err", err)
			return 2
		}
		fcfg.Faults = sched
	}

	exp, err := core.NewExperiment(cfg)
	if err != nil {
		logger.Error("configuring experiment", "err", err)
		return 1
	}

	start := time.Now()
	res, err := exp.RunFleet(ctx, fcfg)
	if err != nil {
		logger.Error("fleet campaign", "err", err)
		return 1
	}
	elapsed := time.Since(start)

	logger.Info("fleet campaign complete",
		"racks", res.Racks, "shards", res.Shards,
		"batches", res.Batches, "samples", res.Samples,
		"wire_bytes", res.WireBytes,
		"kills", res.Kills, "resumes", res.Resumes,
		"replayed", res.Replayed, "redelivered", res.Redelivered,
		"elapsed", elapsed.Round(time.Millisecond),
		"racks_per_sec", fmt.Sprintf("%.1f", float64(res.Racks)/elapsed.Seconds()))
	if res.Oracle {
		if !res.ByteExact {
			logger.Error("fleet state DIVERGES from the single-collector oracle")
			return 1
		}
		logger.Info("byte-exact against the single-collector oracle")
	}
	if *out != "" {
		logger.Info("fleet directory written", "dir", *out)
	}
	return 0
}
