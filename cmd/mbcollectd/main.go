// Command mbcollectd is the standalone collector service: it accepts TCP
// connections from switch-side sampling clients (collector.Client),
// decodes their batch streams and runs them through the one ingest
// pipeline, a collector.Shard: placement filter → epoch gate → durable
// archive (-archive) → ingest statistics → live figures (-figures) →
// checkpoint cadence. The gate is always on: batches from a superseded
// agent epoch and time-regressing duplicates within an epoch (a
// retransmitted batch) are dropped and counted, never double-counted.
//
// Usage:
//
//	mbcollectd -listen 127.0.0.1:9900 [-archive DIR [-resume] [-checkpoint N]]
//	           [-stats 5s] [-http :9901] [-figures [-servers N] [-threshold T]]
//	           [-tracing] [-tracerate R] [-tracecap N]
//	           [-shard I -shards M [-placementseed S]]
//
// Without -shards the daemon is a fleet of one: shard 0, no placement.
// With -shard/-shards it is one shard of a fleet collection plane: the
// rendezvous placement (internal/shard, seeded by -placementseed, shared
// with the agents) assigns every rack to exactly one shard, and batches
// from racks this shard does not own are dropped and counted as
// misrouted — a placement-generation mismatch signal — instead of
// polluting the shard's accumulators. The active placement is served at
// /placement on the debug mux.
//
// With -archive the shard is durable: admitted batches are written ahead
// to a segmented, fsynced, crash-safe archive (internal/trace; read it
// back with mbdump -in DIR), and every -checkpoint batches the volatile
// state (live figures, ingest counters, gate horizons) is checkpointed
// atomically next to it as DIR/checkpoint.mbc (binary; mbdump -checkpoint
// prints it as JSON). After a crash, -resume recovers the archive
// (truncating any torn tail), restores the last checkpoint, and replays
// the un-checkpointed archive tail, so the daemon restarts with exactly
// the state it would have had — agents that retransmit their spool are
// deduplicated by the restored gate. A directory left by a build that
// wrote checkpoint.json resumes after mv checkpoint.json checkpoint.mbc:
// the loader goes by content, not name. A failed archive write or sync is
// fatal: the daemon exits non-zero rather than silently dropping data.
// Without -archive the shard is volatile and the daemon only accounts
// (and, with -figures, analyses) what it receives.
//
// With -http the daemon serves its debug surface (see README
// "Observability"): Prometheus metrics at /metrics, a JSON snapshot at
// /stats, the legacy ingest snapshot at /stats/ingest, /healthz, and
// /debug/pprof/. With -figures it additionally runs every ingested
// byte-counter sample through the streaming analysis accumulators and
// serves the running Fig 3/4/6/9 statistics at /figures (see README
// "Streaming analysis").
//
// With -tracing the daemon records pipeline spans (internal/ptrace) for
// each ingested batch — server.ingest, epoch.gate verdicts, archive
// writes, checkpoints — and serves them at /spans (JSON) and /tracez
// (the mbtrace text report) on the debug mux; cmd/mbtrace renders either.
//
// Flag misuse (an unknown flag, -resume without -archive, -shard without
// or outside -shards) is one ERROR log line and exit status 2, before
// anything listens. Shut down with SIGINT/SIGTERM; the listener drains
// connections, the archive seals, and a final checkpoint is written
// before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mburst/internal/analysis"
	"mburst/internal/collector"
	"mburst/internal/obs"
	"mburst/internal/ptrace"
	"mburst/internal/shard"
	"mburst/internal/topo"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil))
}

// run is the whole daemon — flag parsing included — returning the exit
// code when ctx is canceled or the pipeline dies. Split from main so the
// tests drive the exact production path over real sockets: ready, when
// non-nil, is called once with the bound ingest address and the bound
// debug HTTP address ("" without -http) as soon as both listen.
func run(ctx context.Context, args []string, stderr io.Writer, ready func(ingest, debug string)) int {
	logger := obs.DaemonLoggerTo(stderr, "mbcollectd")
	fs := flag.NewFlagSet("mbcollectd", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a parse error is logged below, as one line
	listen := fs.String("listen", "127.0.0.1:9900", "listen address")
	archiveDir := fs.String("archive", "", "durable archive directory (segmented, fsynced, crash-recoverable)")
	resume := fs.Bool("resume", false, "recover the -archive directory and restore the last checkpoint before serving")
	checkpointEvery := fs.Int("checkpoint", collector.DefaultCheckpointEvery, "checkpoint the collector state every N admitted batches (with -archive)")
	statsEvery := fs.Duration("stats", 5*time.Second, "stats log interval")
	httpAddr := fs.String("http", "", "debug HTTP address (/metrics, /stats, /healthz, /debug/pprof/)")
	figures := fs.Bool("figures", false, "serve live streaming figures at /figures (needs -http)")
	servers := fs.Int("servers", 16, "servers per rack, for the /figures port speed map")
	threshold := fs.Float64("threshold", analysis.DefaultHotThreshold, "hot threshold for /figures")
	tracing := fs.Bool("tracing", false, "record pipeline spans and serve /spans and /tracez (needs -http)")
	traceRate := fs.Float64("tracerate", 0, "fraction of batch traces kept by the deterministic head sampler (0 = all)")
	traceCap := fs.Int("tracecap", ptrace.DefaultCapacity, "span ring capacity")
	shardID := fs.Int("shard", -1, "this collector's shard index in the fleet placement (requires -shards)")
	numShards := fs.Int("shards", 0, "fleet shard count; with -shard, drop batches from racks the placement owns elsewhere")
	placementSeed := fs.Uint64("placementseed", 1, "rendezvous placement seed (must match the agents')")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		logger.Error("parsing flags", "err", err)
		return 2
	}
	if *resume && *archiveDir == "" {
		logger.Error("-resume needs -archive")
		return 2
	}
	if *shardID >= 0 && *numShards <= 0 {
		logger.Error("-shard needs -shards")
		return 2
	}

	reg := obs.NewRegistry()
	obs.RegisterGoRuntime(reg)
	var tracer *ptrace.Tracer
	if *tracing {
		tracer = ptrace.New(ptrace.Config{
			Capacity:   *traceCap,
			SampleRate: *traceRate,
			Metrics:    reg,
		})
	}

	stats := &collector.IngestStats{}
	serverMetrics := collector.NewServerMetrics(reg)
	cfg := collector.ShardConfig{
		Stats:       stats,
		GateMetrics: serverMetrics,
		Metrics:     collector.NewShardMetrics(reg),
		Tracer:      tracer,
	}
	if *figures {
		rack := topo.Default(*servers)
		lf, err := collector.NewLiveFigures(collector.LiveFiguresConfig{
			SpeedOf: func(_ uint32, port uint16) uint64 {
				if rack.IsUplink(int(port)) {
					return rack.UplinkSpeed
				}
				return rack.ServerSpeed
			},
			IsUplink:  func(_ uint32, port uint16) bool { return rack.IsUplink(int(port)) },
			Threshold: *threshold,
		})
		if err != nil {
			logger.Error("live figures", "err", err)
			return 1
		}
		cfg.Figures = lf
	}
	// A fleet of one is shard 0 with no placement; -shards makes the
	// shard police placement ownership ahead of the pipeline, so a
	// placement-generation mismatch between agents and collectors shows
	// up as counted misrouted drops instead of double-counted series.
	if *numShards > 0 {
		pl, err := shard.Uniform(*numShards, *placementSeed)
		if err != nil {
			logger.Error("building placement", "err", err)
			return 2
		}
		cfg.ID, cfg.Placement = *shardID, &pl
	}
	// Before the archive exists: a rejected -shard must not leave a
	// directory that makes the corrected rerun fail with "already holds an
	// archive".
	if err := cfg.Validate(); err != nil {
		logger.Error("building shard", "err", err)
		return 2
	}
	var arch *trace.ArchiveWriter
	if *archiveDir != "" {
		var err error
		var rec *trace.ArchiveRecovery
		if *resume {
			arch, rec, err = trace.ResumeArchive(*archiveDir, trace.ArchiveConfig{})
		} else {
			arch, err = trace.CreateArchive(*archiveDir, trace.ArchiveConfig{})
		}
		if err != nil {
			logger.Error("opening archive", "dir", *archiveDir, "err", err)
			return 1
		}
		if rec != nil {
			for _, s := range rec.Scanned {
				if s.Torn {
					logger.Warn("recovered torn segment", "segment", s.Name,
						"batches", s.Batches, "truncated_bytes", s.TruncatedBytes)
				}
			}
			for _, name := range rec.RemovedSegments {
				logger.Warn("removed segment past a torn one", "segment", name)
			}
			logger.Info("archive recovered", "batches", rec.Batches, "samples", rec.Samples,
				"sealed_segments", rec.SealedSegments)
		}
		// Assigned only here: a nil *ArchiveWriter stored in the ArchiveSink
		// interface would be non-nil and make a volatile shard durable.
		cfg.Archive = arch
		cfg.CheckpointPath = filepath.Join(*archiveDir, collector.CheckpointFileName)
		cfg.Every = *checkpointEvery
		cfg.RecoveryMetrics = collector.NewRecoveryMetrics(reg)
	}
	sh, err := collector.NewShard(cfg)
	if err != nil { // Validate passed, so only a check NewShard gains later lands here
		logger.Error("building shard", "err", err)
		if arch != nil {
			arch.Close()
		}
		return 2
	}
	if cfg.Placement != nil {
		logger.Info("sharded", "shard", sh.ID(), "of", *numShards,
			"name", cfg.Placement.Name(sh.ID()), "placement_version", cfg.Placement.Version)
	}
	if *resume {
		rep, err := sh.Resume(func(fn func(b *wire.Batch) error) error {
			return trace.IterArchive(*archiveDir, fn)
		})
		if err != nil {
			logger.Error("resuming from checkpoint", "err", err)
			return 1
		}
		logger.Info("resumed", "had_checkpoint", rep.HadCheckpoint,
			"checkpoint_batches", rep.CheckpointBatches, "replayed", rep.Replayed,
			"archive_batches", rep.ArchiveBatches,
			"checkpoint_bytes", int64(cfg.RecoveryMetrics.CheckpointBytes.Value()),
			"load_ms", cfg.RecoveryMetrics.CheckpointLoadSeconds.Value()*1e3)
		if rep.Shortfall > 0 {
			logger.Warn("archive shortfall: checkpointed batches missing from disk",
				"batches", rep.Shortfall)
		}
	}
	stats.Attach(reg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listening", "addr", *listen, "err", err)
		return 1
	}
	// The gate lives inside the shard, ahead of the archive write, so the
	// server's own EpochGate stays unset.
	srv := collector.ServeConfigured(ln, sh.Handle, collector.ServerConfig{
		Metrics: serverMetrics,
		Tracer:  tracer,
	})
	logger.Info("listening", "addr", srv.Addr().String(), "durable", arch != nil)

	debugAddr := ""
	if *httpAddr != "" {
		mux := obs.NewDebugMux(reg, nil)
		mux.Handle("/stats/ingest", stats)
		if cfg.Figures != nil {
			mux.Handle("/figures", cfg.Figures)
		}
		if tracer != nil {
			mux.Handle("/spans", tracer.SpansHandler())
			mux.Handle("/tracez", tracer.TracezHandler())
		}
		if cfg.Placement != nil {
			mux.HandleFunc("/placement", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(struct {
					Shard     int              `json:"shard"`
					Placement *shard.Placement `json:"placement"`
				}{sh.ID(), cfg.Placement})
			})
		}
		ds, err := obs.StartDebug(*httpAddr, mux)
		if err != nil {
			logger.Error("debug http", "addr", *httpAddr, "err", err)
			srv.Close()
			return 1
		}
		defer ds.Close()
		debugAddr = ds.Addr()
		logger.Info("debug http listening", "url", fmt.Sprintf("http://%s/metrics", debugAddr))
	}
	if ready != nil {
		ready(srv.Addr().String(), debugAddr)
	}

	ticker := time.NewTicker(*statsEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			snap := stats.Snapshot()
			logger.Info("ingest", "batches", snap.Batches, "samples", snap.Samples, "racks", len(snap.PerRack))
			if err := srv.LastErr(); err != nil {
				logger.Warn("stream error", "err", err)
			}
			if err := sh.Err(); err != nil {
				logger.Error("archive dead, exiting", "err", err)
				srv.Close()
				return 1
			}
		case <-ctx.Done():
			logger.Info("draining")
			code := 0
			if err := srv.Close(); err != nil {
				logger.Error("closing listener", "err", err)
				code = 1
			}
			if arch != nil {
				if c := finalizeDurable(logger, sh, arch); c != 0 {
					code = c
				}
			}
			snap := stats.Snapshot()
			logger.Info("final", "batches", snap.Batches, "samples", snap.Samples, "exit", code)
			return code
		}
	}
}

// finalizeDurable writes the shutdown checkpoint and seals the archive,
// returning a non-zero exit code if durability could not be guaranteed.
// Separated from run so the failure paths are testable.
func finalizeDurable(logger *slog.Logger, sh *collector.Shard, arch *trace.ArchiveWriter) int {
	code := 0
	if err := sh.Checkpoint(); err != nil {
		logger.Error("final checkpoint", "err", err)
		code = 1
	}
	if err := arch.Close(); err != nil {
		logger.Error("sealing archive", "err", err)
		code = 1
	}
	return code
}
