// Command bench is the repository's benchmark: four workloads that drive
// the real packages through their public functions, seven end-to-end
// metrics and a per-layer ledger. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./bench -workload <name> -seed <n> [-seconds 10] [-trace 1] [-quick]
//	go run ./bench -workload all -quick            # every workload, one command
//	go run ./bench -workload <name> -repeat 10     # noise: median and quartiles per metric (-fixseed: one seed)
//	go run ./bench -compare a.json,b.json          # paired comparison of two -repeat outputs
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from rounds run with span
// recording on, and the span dump is written under -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one row of BENCHMARK.json's metric tables.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics every workload reports with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_wall_s", "s", "lower"},
	{"ingest_samples_per_s", "samples/s", "higher"},
	{"wire_bytes_per_sample", "B", "lower"},
	{"batch_latency_p50_ms", "ms", "lower"},
	{"resume_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
}

// perLayer lists the metrics every workload reports with -trace 1; a
// layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"workload.ns_per_sim_ms", "ns", "lower"},
	{"workload.flows_started", "count", "lower"},
	{"eventq.ns_per_event", "ns", "lower"},
	{"eventq.events", "count", "lower"},
	{"asic.ns_per_tick", "ns", "lower"},
	{"asic.allocs_per_tick", "count", "lower"},
	{"simnet.ns_per_sim_ms", "ns", "lower"},
	{"simnet.allocs_per_sim_ms", "count", "lower"},
	{"simnet.self_frac", "frac", "lower"},
	{"poller.ns_per_sample", "ns", "lower"},
	{"poller.allocs_per_sample", "count", "lower"},
	{"poller.missed_frac", "frac", "lower"},
	{"runner.cells", "count", "lower"},
	{"runner.serial_wall_s", "s", "lower"},
	{"runner.parallel_efficiency", "frac", "higher"},
	{"analysis.ns_per_sample", "ns", "lower"},
	{"analysis.allocs_per_sample", "count", "lower"},
	{"client.emit_ns_per_sample", "ns", "lower"},
	{"client.flush_ns_per_batch", "ns", "lower"},
	{"client.allocs_per_batch", "count", "lower"},
	{"wire.encode_ns_per_sample", "ns", "lower"},
	{"wire.decode_ns_per_sample", "ns", "lower"},
	{"wire.encode_ns_per_batch", "ns", "lower"},
	{"wire.decode_ns_per_batch", "ns", "lower"},
	{"wire.decode_allocs_per_batch", "count", "lower"},
	{"wire.bytes_per_sample", "B", "lower"},
	{"transport.ns_per_batch", "ns", "lower"},
	{"transport.bytes", "B", "lower"},
	{"transport.batch_latency_p99_ms", "ms", "lower"},
	{"transport.generator_late_ms_p99", "ms", "lower"},
	{"gate.ns_per_batch", "ns", "lower"},
	{"gate.dropped_batches", "count", "lower"},
	{"ingeststats.ns_per_batch", "ns", "lower"},
	{"ingeststats.wait_frac", "frac", "lower"},
	{"figures.ns_per_sample", "ns", "lower"},
	{"figures.wait_frac", "frac", "lower"},
	{"figures.series", "count", "lower"},
	{"figures.latched_series", "count", "lower"},
	{"figures.snapshot_ms", "ms", "lower"},
	{"archive.write_ns_per_sample", "ns", "lower"},
	{"archive.bytes_per_sample", "B", "lower"},
	{"archive.fsync_count", "count", "lower"},
	{"archive.fsync_s", "s", "lower"},
	{"archive.iter_ns_per_sample", "ns", "lower"},
	{"checkpoint.count", "count", "lower"},
	{"checkpoint.ms_p50", "ms", "lower"},
	{"checkpoint.ms_max", "ms", "lower"},
	{"checkpoint.bytes", "B", "lower"},
	{"checkpoint.load_ms", "ms", "lower"},
	{"shard.publish_count", "count", "lower"},
	{"shard.publish_ms_p50", "ms", "lower"},
	{"shard.placement_ns_per_lookup", "ns", "lower"},
	{"shard.misrouted", "count", "lower"},
	{"aggregator.offered", "count", "lower"},
	{"aggregator.offer_dropped_frac", "frac", "lower"},
	{"aggregator.final_cut_ms", "ms", "lower"},
	{"aggregator.figures_render_ms", "ms", "lower"},
	{"resume.replayed_batches", "count", "lower"},
	{"resume.archive_scan_ms", "ms", "lower"},
	{"resume.shortfall", "count", "lower"},
	{"harness.peak_heap_mb", "MB", "lower"},
	{"harness.total_alloc_mb", "MB", "lower"},
	{"harness.trace_overhead_frac", "frac", "lower"},
	{"harness.residual_frac", "frac", "lower"},
}

// workloads is BENCHMARK.json's workload table, in the order -workload
// all runs them.
var workloads = []struct {
	name, why string
	run       func(*env) (*outcome, error)
}{
	{"campaign", "researcher's path (RunAll: every table and figure): workload/eventq/asic/simnet/poller/runner do all the work, wire/transport/archive none, so an ingest optimisation must not move it", runCampaign},
	{"ingest_live", "operator's path, 2048-sample batches over loopback TCP into gate, stats and live figures: per-sample cost (wire codec, figures) dominates; simulation is set-up only, archive absent", func(e *env) (*outcome, error) { return runIngest(e, liveSpec) }},
	{"ingest_smallbatch", "same pipeline, 32-sample batches from 16 racks: per-batch cost (flush and read syscalls, framing, stage locks) dominates, so fattening per-batch work to speed per-sample work loses here", func(e *env) (*outcome, error) { return runIngest(e, smallSpec) }},
	{"fleet_durable", "1024 racks onto 4 durable shards, then 12 kill/resume cycles: archive write+fsync, checkpoint, publish, aggregator and resume do the work; no TCP, no simulation, so transport/simnet must not move it", runFleet},
}

// env is what a workload run is given.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds float64
	quick   bool
	tr      *tracer // nil with -trace 0
	dir     string  // scratch directory, inside the working directory
}

// setupRuns is how many times a workload sets up; setup_s is the median.
const setupRuns = 5

func (e *env) timeSetup(f func() error) (float64, error) {
	n := setupRuns
	if e.quick {
		n = 1
	}
	var walls []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}

// rounds runs fixed-work rounds for e.seconds: untraced ones (tr == nil),
// whose medians are the end-to-end metrics, and with -trace 1 spends half
// the time on traced ones. -quick runs one of each.
//
// It returns how many untraced rounds ran: callers collect one record per
// call of f, so records[:n] are the untraced ones and records[n:] the
// traced.
func (e *env) rounds(f func(i int, tr *tracer) error) (int, error) {
	budget := time.Duration(e.seconds * float64(time.Second))
	if e.tr != nil {
		budget /= 2
	}
	i := 0
	phase := func(tr *tracer) error {
		for t0 := time.Now(); ; {
			if err := e.ctx.Err(); err != nil {
				return err
			}
			if err := f(i, tr); err != nil {
				return err
			}
			i++
			if e.quick || time.Since(t0) >= budget {
				return nil
			}
		}
	}
	if err := phase(nil); err != nil {
		return 0, err
	}
	plain := i
	if e.tr != nil {
		return plain, phase(e.tr)
	}
	return plain, nil
}

// outcome is what a workload run produced.
type outcome struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	failures, notes   []string
	led               *ledger // the traced run's attribution, written into the span dump
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(ops int64, format string, args ...any) {
	o.failed += ops
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// finishTrace fills the harness's own per-layer metrics and writes the
// span dump.
func (o *outcome) finishTrace(e *env, led *ledger, plainWall, tracedWall float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.layer["harness.peak_heap_mb"] = float64(ms.HeapSys) / (1 << 20)
	o.layer["harness.total_alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	o.layer["harness.trace_overhead_frac"] = tracedWall/plainWall - 1
	o.layer["harness.residual_frac"] = led.residualFrac()
	o.led = led
	var total float64
	for _, s := range led.layerSelf {
		total += s
	}
	for _, d := range layerOrder(led) {
		if s := led.layerSelf[d]; s > 0 && d != "runner" {
			o.notef("ledger: %-11s %8.3f s self time (%5.1f%%)", d, s, 100*s/total)
		}
	}
	if led.waiting > 0 {
		o.notef("ledger: %.3f s more span time was waiting inside a stage (lock or scheduler), booked to no layer", led.waiting)
	}
}

// layerOrder lists the ledger's layers, busiest first.
func layerOrder(led *ledger) []string {
	var names []string
	for l := range led.layerSelf {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := led.layerSelf[names[i]], led.layerSelf[names[j]]
		return a > b || (a == b && names[i] < names[j])
	})
	return names
}

// result is the JSON the driver reads from the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload once and turns its outcome into the
// driver's result.
func runWorkload(ctx context.Context, name string, seed uint64, seconds float64, trace, quick bool, outDir string) (*result, *outcome, error) {
	var run func(*env) (*outcome, error)
	for _, w := range workloads {
		if w.name == name {
			run = w.run
		}
	}
	if run == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	e := &env{ctx: ctx, seed: seed, seconds: seconds, quick: quick}
	var err error
	if e.dir, err = os.MkdirTemp(outDir, "tmp-"); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(e.dir)
	if trace {
		e.tr = newTracer()
	}
	out, err := run(e)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Correct: out.failed == 0 && len(out.failures) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	defs, values := endToEnd, out.e2e
	if trace {
		defs, values = perLayer, out.layer
		path := filepath.Join(outDir, "spans-"+name+".json")
		if err := e.tr.dump(path, name, out.led); err != nil {
			return nil, nil, err
		}
		out.notef("span dump: %s", path)
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.fail(0, "metric %s is %v", d.Name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res, out, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "workload to run: campaign, ingest_live, ingest_smallbatch, fleet_durable, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed region runs (whole fixed-work rounds)")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	quick := flag.Bool("quick", false, "about 1/20 of the work, one round: a smoke run, not a measurement")
	repeat := flag.Int("repeat", 1, "run the workload this many times (seed, seed+1, …) and print median and quartiles per metric")
	fixSeed := flag.Bool("fixseed", false, "with -repeat, run every repetition on -seed instead of seed, seed+1, …")
	compare := flag.String("compare", "", "two -repeat outputs, comma separated: print the paired comparison and exit")
	outDir := flag.String("out", ".bench_out", "directory for scratch data, span dumps and -repeat outputs (inside the working directory)")
	flag.Parse()

	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	if *compare != "" {
		return compareMain(*compare)
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "bench: -workload is required (campaign, ingest_live, ingest_smallbatch, fleet_durable, all)")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("bench: GOMAXPROCS=%d NumCPU=%d seed=%d seconds=%g trace=%d quick=%v scratch on %s\n",
		procs, runtime.NumCPU(), *seed, *seconds, *trace, *quick, fsName(*outDir))

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if *repeat > 1 {
		return repeatMain(ctx, names, *seed, !*fixSeed, *seconds, *trace == 1, *quick, *repeat, *outDir)
	}
	code := 0
	total := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		res, out, err := runWorkload(ctx, name, *seed, *seconds, *trace == 1, *quick, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printOutcome(name, res, out, *trace == 1)
		if !res.Correct {
			code = 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// printOutcome prints one workload's metrics by name with their units.
func printOutcome(name string, res *result, out *outcome, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Printf("== %s: ops_attempted=%d ops_failed=%d correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		fmt.Printf("   %-34s %16.6g %-10s (%s is better)\n", d.Name, res.Metrics[d.Name].Value, d.Unit, d.Better)
	}
	for _, n := range out.notes {
		fmt.Println("   " + n)
	}
	for _, f := range out.failures {
		fmt.Println("   FAILED: " + f)
	}
}

// splitList splits a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
