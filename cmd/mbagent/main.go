// Command mbagent is the switch-side half of the distributed collection
// pipeline: it runs a simulated rack, polls the configured counters at
// high resolution, and streams sample batches to an mbcollectd instance
// over TCP — reconnecting with backoff if the collector restarts, exactly
// as a production collection agent must.
//
// Usage:
//
//	mbcollectd -listen 127.0.0.1:9900 &
//	mbagent -collector 127.0.0.1:9900 -app cache -port 5 -interval 25µs -dur 2s [-http :9902]
//
// While the collector is unreachable the agent spools sealed batches
// (bounded by -spool, default the in-flight buffer size) and replays
// them in order on reconnect; the restored collector's epoch gate
// deduplicates the retransmission overlap. The agent logs delivery
// accounting on exit (delivered, spooled, locally dropped, redials),
// so collector restarts during the run are visible.
// With -http it serves /metrics, /stats, /healthz, and /debug/pprof/
// while running (see README "Observability").
//
// With -shards the agent joins a sharded collection plane: the flag
// lists the shard collectors' addresses in placement index order, and
// the agent dials the one the rendezvous placement (internal/shard,
// seeded by -placementseed) assigns its -rack — the same placement the
// collectors enforce with -shard/-shards, so misrouting is impossible
// when the counts and seeds agree.
//
// With -tracing the agent records the client half of each batch's
// pipeline trace (internal/ptrace): poll.read, wire.encode, and
// client.send, with reconnect backoff waits as client.backoff child
// spans. Spans are served at /spans and /tracez on the -http mux and
// join server-side spans at render time — both halves derive the same
// trace ID from the batch content alone.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/obs"
	"mburst/internal/ptrace"
	"mburst/internal/rng"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
	"mburst/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is the agent: it parses args, streams the simulated rack's samples
// to the collector, logs to stderr, and returns the exit code.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbagent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	collectorAddr := fs.String("collector", "127.0.0.1:9900", "mbcollectd address")
	appName := fs.String("app", "web", "application rack type")
	port := fs.Int("port", 0, "switch port to poll")
	interval := fs.Duration("interval", 25*time.Microsecond, "sampling interval")
	dur := fs.Duration("dur", 2*time.Second, "simulated duration to record")
	servers := fs.Int("servers", 32, "servers per rack")
	seed := fs.Uint64("seed", 1, "seed")
	rackID := fs.Uint("rack", 0, "rack id tag")
	epoch := fs.Uint("epoch", 0, "agent incarnation number; bump on restart so an epoch-gated collector discards stale batches (0 = never restarted)")
	spool := fs.Int("spool", 0, "retransmit spool bound in samples while the collector is down; size to outage duration x sample rate (0 = same as the in-flight buffer)")
	shardAddrs := fs.String("shards", "", "comma-separated shard collector addresses in placement index order; the agent dials the shard the placement assigns its -rack (overrides -collector)")
	placementSeed := fs.Uint64("placementseed", 1, "rendezvous placement seed (must match the collectors')")
	httpAddr := fs.String("http", "", "debug HTTP address (/metrics, /stats, /healthz, /debug/pprof/)")
	tracing := fs.Bool("tracing", false, "record client-side pipeline spans and serve /spans and /tracez (needs -http)")
	traceRate := fs.Float64("tracerate", 0, "fraction of batch traces kept by the deterministic head sampler (0 = all)")
	traceCap := fs.Int("tracecap", ptrace.DefaultCapacity, "span ring capacity")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger := obs.DaemonLoggerTo(stderr, "mbagent")
	reg := obs.NewRegistry()
	obs.RegisterGoRuntime(reg)

	var tracer *ptrace.Tracer
	if *tracing {
		tracer = ptrace.New(ptrace.Config{
			Capacity:   *traceCap,
			SampleRate: *traceRate,
			Seed:       *seed,
			Metrics:    reg,
		})
	}

	app, err := workload.ParseApp(*appName)
	if err != nil {
		logger.Error("parsing app", "err", err)
		return 2
	}
	net_, err := simnet.New(simnet.Config{
		Rack:   topo.Default(*servers),
		Params: workload.DefaultParams(app),
		Seed:   *seed,
		RackID: int(*rackID),
	})
	if err != nil {
		logger.Error("building rack", "err", err)
		return 1
	}
	if *port < 0 || *port >= net_.Rack().NumPorts() {
		logger.Error("port out of range", "port", *port, "ports", net_.Rack().NumPorts())
		return 2
	}
	net_.RegisterMetrics(reg, obs.L("rack", fmt.Sprint(*rackID)))
	net_.Scheduler().Instrument(reg)

	// Shard-aware dialing: with -shards, the placement (over canonical
	// shard names, so agents and collectors agree from the count and
	// seed alone) picks which collector owns this rack's stream.
	dialAddr := *collectorAddr
	if *shardAddrs != "" {
		addrs := strings.Split(*shardAddrs, ",")
		pl, err := shard.Uniform(len(addrs), *placementSeed)
		if err != nil {
			logger.Error("building placement", "err", err)
			return 2
		}
		owner := pl.ShardOf(uint32(*rackID))
		dialAddr = strings.TrimSpace(addrs[owner])
		if dialAddr == "" {
			logger.Error("empty address for owning shard", "shard", owner)
			return 2
		}
		logger.Info("placed", "rack", *rackID, "shard", owner,
			"name", pl.Name(owner), "collector", dialAddr)
	}

	client := collector.NewReconnectingClient(func() (io.WriteCloser, error) {
		return net.DialTimeout("tcp", dialAddr, 2*time.Second)
	}, collector.ReconnectingClientConfig{
		Rack:       uint32(*rackID),
		Epoch:      uint32(*epoch),
		SpoolLimit: *spool,
		Rand:       rng.New(*seed ^ 0x5eed).Split("backoff"),
		Metrics:    collector.NewClientMetrics(reg),
		Tracer:     tracer,
	})

	poller, err := collector.NewPoller(collector.PollerConfig{
		Interval:      simclock.FromStd(*interval),
		Counters:      []collector.CounterSpec{{Port: *port, Dir: asic.TX, Kind: asic.KindBytes}},
		DedicatedCore: true,
		Metrics:       collector.NewPollerMetrics(reg),
	}, net_.Switch(), rng.New(*seed^0xa9e47), client)
	if err != nil {
		logger.Error("building poller", "err", err)
		return 1
	}

	if *httpAddr != "" {
		mux := obs.NewDebugMux(reg, nil)
		if tracer != nil {
			mux.Handle("/spans", tracer.SpansHandler())
			mux.Handle("/tracez", tracer.TracezHandler())
		}
		ds, err := obs.StartDebug(*httpAddr, mux)
		if err != nil {
			logger.Error("debug http", "addr", *httpAddr, "err", err)
			return 1
		}
		defer ds.Close()
		logger.Info("debug http listening", "url", fmt.Sprintf("http://%s/metrics", ds.Addr()))
	}

	logger.Info("polling",
		"app", app.String(), "port", *port, "counter", net_.Switch().Port(*port).Name(),
		"interval", *interval, "dur", *dur, "collector", dialAddr)
	net_.Run(25 * simclock.Millisecond) // warmup
	poller.Install(net_.Scheduler())
	net_.Run(simclock.FromStd(*dur))
	poller.Stop()
	if err := client.Close(); err != nil {
		logger.Error("closing client", "err", err)
	}
	logger.Info("done",
		"samples", poller.Samples(), "miss_rate", fmt.Sprintf("%.2f%%", poller.MissRate()*100),
		"delivery", client.String())
	return 0
}
