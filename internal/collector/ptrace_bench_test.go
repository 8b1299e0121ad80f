package collector

import (
	"runtime"
	"testing"

	"mburst/internal/eventq"
	"mburst/internal/ptrace"
	"mburst/internal/rng"
	"mburst/internal/simclock"
)

// runTracedPoll drives the polling hot path tracing is charged to: a
// dedicated-core poller emitting into a batching Client that frames onto
// a discarding writer, for simDur of simulated time. When tr is non-nil
// the client records its half of each flushed batch's chain (poll.read,
// wire.encode and client.send spans) — exactly what mbagent -tracing
// adds to production polling. It returns the samples polled and the
// batches flushed.
func runTracedPoll(tb testing.TB, tr *ptrace.Tracer, simDur simclock.Duration) (samples uint64, batches int) {
	tb.Helper()
	sw := testSwitch()
	var w frameCounter
	client, err := NewClientConfigured(&w, ClientConfig{Rack: 3})
	if err != nil {
		tb.Fatal(err)
	}
	client.tracer = tr
	p, err := NewPoller(PollerConfig{
		Interval:      simclock.Micros(25),
		Counters:      []CounterSpec{byteSpec(0)},
		DedicatedCore: true,
	}, sw, rng.New(1), client)
	if err != nil {
		tb.Fatal(err)
	}
	sched := eventq.NewScheduler()
	p.Install(sched)
	sched.RunUntil(simclock.Epoch.Add(simDur))
	if err := client.Close(); err != nil {
		tb.Fatal(err)
	}
	return p.Samples(), w.writes
}

// frameCounter discards what the Client writes, counting the writes:
// wire.Writer hands each batch's frame to one Write.
type frameCounter struct{ writes int }

func (w *frameCounter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestPtraceOverheadIsCounted bounds what tracing adds to the polling hot
// path by counts, not wall time: a traced client records exactly three
// spans per flushed batch, and allocates at most maxAllocsPerBatch more
// times per batch than the same run untraced. (The wall-clock cost is
// the benchmark's harness.trace_overhead_frac and BenchmarkPtraceOverhead.)
func TestPtraceOverheadIsCounted(t *testing.T) {
	const (
		simDur = 200 * simclock.Millisecond
		// maxAllocsPerBatch bounds the traced run's extra allocations.
		// Recording a batch's spans takes three or four (one per span, and
		// the missed-poll attribute's text); the rest is headroom for the
		// runtime's own allocations, which land in whichever run they hit.
		maxAllocsPerBatch = 8
		trials            = 3
	)
	// mallocs is the fewest allocations of trials identical runs.
	mallocs := func(tr *ptrace.Tracer) (least, samples uint64, batches int) {
		least = ^uint64(0)
		for i := 0; i < trials; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			samples, batches = runTracedPoll(t, tr, simDur)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least, samples, batches
	}
	base, samples, batches := mallocs(nil)
	tracer := ptrace.New(ptrace.Config{Capacity: 1 << 16})
	traced, tracedSamples, tracedBatches := mallocs(tracer)
	t.Logf("%d samples in %d batches: %d spans, %d mallocs untraced, %d traced",
		samples, batches, tracer.Recorded()/trials, base, traced)

	if tracedSamples != samples || tracedBatches != batches || batches < 2 {
		t.Fatalf("traced run polled %d samples in %d batches, untraced %d in %d",
			tracedSamples, tracedBatches, samples, batches)
	}
	if got, want := tracer.Recorded(), uint64(3*trials*batches); got != want {
		t.Errorf("recorded %d spans over %d runs of %d batches, want %d", got, trials, batches, want)
	}
	if extra := int64(traced) - int64(base); extra > int64(maxAllocsPerBatch*batches) {
		t.Errorf("tracing added %d allocations over %d batches, want at most %d per batch",
			extra, batches, maxAllocsPerBatch)
	}
}

// BenchmarkPtraceOverhead reports the per-run cost of the polling loop
// with and without span recording. Run with:
//
//	go test -run=^$ -bench=BenchmarkPtraceOverhead -benchtime=1x ./internal/collector
func BenchmarkPtraceOverhead(b *testing.B) {
	for _, bc := range []struct {
		name   string
		traced bool
	}{
		{"untraced", false},
		{"traced", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var tr *ptrace.Tracer
				if bc.traced {
					tr = ptrace.New(ptrace.Config{Capacity: 1 << 16})
				}
				runTracedPoll(b, tr, simclock.Second)
			}
		})
	}
}
