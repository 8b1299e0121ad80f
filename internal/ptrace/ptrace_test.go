package ptrace

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mburst/internal/obs"
	"mburst/internal/simclock"
)

func at(us int64) simclock.Time { return simclock.Epoch.Add(simclock.Micros(us)) }

func TestBatchIDContentDerived(t *testing.T) {
	a := BatchID(1, 2, at(100))
	if b := BatchID(1, 2, at(100)); b != a {
		t.Fatalf("same content, different IDs: %x vs %x", a, b)
	}
	for _, other := range []TraceID{
		BatchID(2, 2, at(100)), BatchID(1, 3, at(100)), BatchID(1, 2, at(101)),
	} {
		if other == a {
			t.Fatalf("distinct content collided on %x", a)
		}
	}
}

func TestSamplingDeterminism(t *testing.T) {
	a := New(Config{Seed: 7, SampleRate: 0.25})
	b := New(Config{Seed: 7, SampleRate: 0.25})
	other := New(Config{Seed: 8, SampleRate: 0.25})
	kept, diff := 0, 0
	const n = 4096
	for i := 0; i < n; i++ {
		id := BatchID(uint32(i%16), 0, at(int64(i)*25))
		if a.SampledID(id) != b.SampledID(id) {
			t.Fatalf("same seed disagrees on %x", id)
		}
		if a.SampledID(id) {
			kept++
		}
		if a.SampledID(id) != other.SampledID(id) {
			diff++
		}
	}
	// Rate should land near 25%, and a different seed must select a
	// different subset.
	if kept < n/8 || kept > n/2 {
		t.Errorf("kept %d of %d at rate 0.25", kept, n)
	}
	if diff == 0 {
		t.Error("different seeds selected identical subsets")
	}
}

func TestSampleRateZeroKeepsAll(t *testing.T) {
	tr := New(Config{Seed: 1})
	for i := 0; i < 100; i++ {
		if !tr.SampledID(BatchID(uint32(i), 0, at(int64(i)))) {
			t.Fatal("rate 0 (trace everything) dropped a trace")
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	h := tr.Batch(1, 0, at(1))
	if h.Sampled() {
		t.Fatal("nil tracer sampled")
	}
	// Must not panic.
	h.Record(Span{Stage: StagePollRead, Parent: StageClientSend, Start: at(1), Stop: at(2),
		Samples: 1, Bytes: 2, Verdict: "x", Fault: "y"})
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
}

// TestRecordCostAndIdentity counts Record's cost: one allocation (the
// ring's copy) on a sampled trace, none on the zero Trace or a nil
// tracer's handle. The handle's identity overwrites the caller's.
func TestRecordCostAndIdentity(t *testing.T) {
	tr := New(Config{Capacity: 16, Metrics: obs.NewRegistry()})
	h := tr.Batch(3, 4, at(0))
	sp := Span{Trace: 99, Stage: StagePollRead, Rack: 77, Epoch: 55, Start: at(0), Stop: at(5), Samples: 8, Bytes: 100}
	if got := testing.AllocsPerRun(100, func() { h.Record(sp) }); got != 1 {
		t.Errorf("Record on a sampled trace: %v allocs, want 1", got)
	}
	var nilTracer *Tracer
	for name, zero := range map[string]Trace{"zero Trace": {}, "nil tracer": nilTracer.Batch(3, 4, at(0))} {
		if got := testing.AllocsPerRun(100, func() { zero.Record(sp) }); got != 0 {
			t.Errorf("Record on the %s: %v allocs, want 0", name, got)
		}
	}
	got := tr.Snapshot()[0]
	want := sp
	want.Trace, want.Rack, want.Epoch = BatchID(3, 4, at(0)), 3, 4
	if got != want {
		t.Errorf("recorded %+v, want %+v", got, want)
	}
}

func record(t *Tracer, rack uint32, first simclock.Time, n int) {
	t.Batch(rack, 0, first).Record(Span{Stage: StagePollRead, Start: first,
		Stop: first.Add(simclock.Micros(int64(n))), Samples: n, Bytes: n * 8})
}

func TestRingWraparound(t *testing.T) {
	tr := New(Config{Capacity: 8})
	const total = 20
	for i := 0; i < total; i++ {
		record(tr, 1, at(int64(i)*100), 4)
	}
	if got := tr.Recorded(); got != total {
		t.Errorf("Recorded = %d, want %d", got, total)
	}
	if got := tr.Evicted(); got != total-8 {
		t.Errorf("Evicted = %d, want %d", got, total-8)
	}
	spans := tr.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("snapshot kept %d spans, want ring capacity 8", len(spans))
	}
	// The survivors are the newest 8 publishes; every one must be intact.
	for _, sp := range spans {
		if sp.Stage != StagePollRead || sp.Samples != 4 || sp.Duration() != simclock.Micros(4) {
			t.Errorf("corrupt span after wrap: %+v", sp)
		}
		if sp.Start < at(12*100) {
			t.Errorf("evicted span still visible: start %v", sp.Start)
		}
	}
}

func TestCapacityRoundsToPowerOfTwo(t *testing.T) {
	if got := New(Config{Capacity: 100}).Capacity(); got != 128 {
		t.Errorf("capacity 100 rounded to %d, want 128", got)
	}
}

func TestSnapshotCanonicalOrder(t *testing.T) {
	// Publish the same spans in two different orders; snapshots must match.
	build := func(order []int) []Span {
		tr := New(Config{Capacity: 16})
		for _, i := range order {
			record(tr, uint32(i), at(int64(i)*50), i+1)
		}
		return tr.Snapshot()
	}
	a := build([]int{1, 2, 3, 4})
	b := build([]int{4, 2, 1, 3})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshot order depends on publish order:\n a=%v\n b=%v", a, b)
	}
}

func TestConcurrentPublishAndServe(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Capacity: 64, Metrics: reg})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				record(tr, uint32(w), at(int64(w*1000+i)), 8)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				tr.SpansHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/spans", nil))
				if rec.Code != 200 {
					t.Errorf("/spans status %d", rec.Code)
					return
				}
				rec = httptest.NewRecorder()
				tr.TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?n=5", nil))
				if rec.Code != 200 {
					t.Errorf("/tracez status %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tr.Recorded() != 4*500 {
		t.Errorf("Recorded = %d, want %d", tr.Recorded(), 4*500)
	}
}

func TestHandlersRenderSpans(t *testing.T) {
	tr := New(Config{Capacity: 16})
	chainOneBatch(tr, 3, at(100), 16, 200)

	rec := httptest.NewRecorder()
	tr.SpansHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/spans", nil))
	d, err := ReadDump(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	// One per-batch chain: every stage except backoff and the
	// out-of-chain durability stages (checkpoint, recover).
	if len(d.Spans) != 7 {
		t.Fatalf("dump has %d spans, want 7", len(d.Spans))
	}

	rec = httptest.NewRecorder()
	tr.TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	body := rec.Body.String()
	for _, frag := range []string{"poll.read", "figures.apply", "accept", "rack 3", "critical path:"} {
		if !strings.Contains(body, frag) {
			t.Errorf("/tracez missing %q", frag)
		}
	}
	// /tracez is the mbtrace report of the same spans, byte for byte.
	var want strings.Builder
	fmt.Fprintf(&want, "%d spans recorded, %d evicted\n", tr.Recorded(), tr.Evicted())
	WriteReport(&want, d.Spans, 20)
	if body != want.String() {
		t.Errorf("/tracez body differs from WriteReport of /spans:\ngot:\n%s\nwant:\n%s", body, want.String())
	}

	// Trailing bytes after the digits make n bad too ("7%209" is "7 9").
	for _, q := range []string{"bogus", "3x", "7%209"} {
		rec = httptest.NewRecorder()
		tr.TracezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?n="+q, nil))
		if rec.Code != 400 {
			t.Errorf("n=%s: status %d, want 400", q, rec.Code)
		}
	}
}

// chainOneBatch records a full 7-stage chain the way the pipeline does.
func chainOneBatch(t *Tracer, rack uint32, first simclock.Time, n, bytes int) {
	tr := t.Batch(rack, 0, first)
	last := first.Add(simclock.Micros(int64(n) * 25))
	tr.Record(Span{Stage: StagePollRead, Start: first, Stop: last, Samples: n, Bytes: bytes})
	tr.Chain(last, n, bytes)
}

func TestDumpRoundTrip(t *testing.T) {
	tr := New(Config{Capacity: 16})
	chainOneBatch(tr, 1, at(0), 8, 100)
	var buf bytes.Buffer
	if err := tr.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	d, err := ReadDump(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Spans, tr.Snapshot()) {
		t.Fatal("dump round trip diverged from snapshot")
	}
	// Byte-identical re-serialization.
	var buf2 bytes.Buffer
	if err := tr.WriteDump(&buf2); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Fatal("two dumps of the same ring differ")
	}
}

// TestStageWindowsAreContiguous checks the stage table: each stage in it
// starts where the previous one stopped, the first where the poll did,
// and has a positive extent.
func TestStageWindowsAreContiguous(t *testing.T) {
	pollEnd := at(500)
	const n, bytes = 100, 1200
	prev := pollEnd
	for _, c := range chain {
		s, e := Window(c.stage, pollEnd, n, bytes)
		if s != prev {
			t.Errorf("%s starts at %v, want %v (stages must be back-to-back)", c.stage, s, prev)
		}
		if e <= s {
			t.Errorf("%s has non-positive extent [%v, %v]", c.stage, s, e)
		}
		prev = e
	}
}

func TestMetricsFeed(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Capacity: 16, Metrics: reg})
	chainOneBatch(tr, 1, at(0), 8, 100)
	tr2 := New(Config{Seed: 3, SampleRate: 0.0001, Metrics: reg})
	_ = tr2 // second tracer shares the registry without panicking
	vals := map[string]float64{}
	for _, f := range reg.Snapshot().Families {
		total := 0.0
		for _, s := range f.Series {
			total += s.Value
		}
		vals[f.Name] = total
	}
	if vals["mburst_ptrace_spans_total"] != 7 {
		t.Errorf("spans_total = %v, want 7", vals["mburst_ptrace_spans_total"])
	}
	if vals["mburst_ptrace_traces_sampled_total"] != 1 {
		t.Errorf("sampled_total = %v, want 1", vals["mburst_ptrace_traces_sampled_total"])
	}
}
