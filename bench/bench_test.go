package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors the repository root's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json and the tables in main.go must name the same workloads
// and metrics, with the same units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, main.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, main.go %q (or their why differs)", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, main.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.metricDef != d {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, main.go %+v", i, got.metricDef, d)
		}
		if got.Bound == nil || *got.Bound < 0 || *got.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside [0, 0.25]", d.Name, got.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, main.go %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if bj.PerLayer[i] != d {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, main.go %+v", i, bj.PerLayer[i], d)
		}
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("command %v over paths %v: want go run ./bench over bench", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}

// spansNotExpected lists, per workload, span kinds of layers that must do
// no work there.
var spansNotExpected = map[string][]spanKind{
	"campaign": {spClientBatch, spConnWrite, spConnRead, spDecodeGate, spWireEncode, spWireDecode,
		spArchiveWrite, spArchiveFsync, spCheckpoint, spFigures, spShardHandle},
	"ingest_live":       {spRunAll, spArchiveWrite, spArchiveFsync, spCheckpoint, spPublish, spResume},
	"ingest_smallbatch": {spRunAll, spArchiveWrite, spArchiveFsync, spCheckpoint, spPublish, spResume},
	"fleet_durable":     {spRunAll, spClientBatch, spConnWrite, spConnRead, spDecodeGate},
}

// Every workload runs at -quick scale with and without tracing, emits
// every metric BENCHMARK.json names as a finite number, and has its
// oracles green.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			mode := map[bool]string{false: "plain", true: "trace"}[trace]
			t.Run(name+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				res, out, err := runWorkload(context.Background(), name, 5, 1, trace, true, dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range out.failures {
					t.Errorf("oracle: %s", f)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d defined", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, must be positive", d.Name, m.Value)
					}
				}
				if !trace {
					return
				}
				for _, k := range spansNotExpected[name] {
					if n := out.led.kinds[k].Count; n != 0 {
						t.Errorf("%d %s spans recorded on %s; that layer must do no work there", n, spanInfo[k].name, name)
					}
				}
				var dump struct {
					Spans  int               `json:"spans_recorded"`
					Dumped []json.RawMessage `json:"spans"`
				}
				data, err := os.ReadFile(filepath.Join(dir, "spans-"+name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(data, &dump); err != nil {
					t.Fatal(err)
				}
				if dump.Spans == 0 || len(dump.Dumped) == 0 {
					t.Errorf("span dump holds %d of %d spans", len(dump.Dumped), dump.Spans)
				}
			})
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if pct, v := tail([]float64{1, 2, 3}); pct != 50 || v != 2 {
		t.Fatalf("tail of 3 samples = p%v %v, want the median", pct, v)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if pct, _ := tail(big); pct != 99 {
		t.Fatalf("tail of 1000 samples = p%v, want p99 (ten samples beyond it)", pct)
	}
}

// A span's self time is its duration minus its children's.
func TestLedgerSelfTime(t *testing.T) {
	tr := newTracer()
	b := tr.buf()
	b.beginAt(spRound, 0, 0)
	b.add(spGenFill, 1, 10, 30)
	b.beginAt(spClientBatch, 1, 40)
	b.add(spConnWrite, 1, 50, 60)
	b.add(spConnRead, 1, 60, 65) // a waiting kind: counted, not busy
	b.recs[b.open[len(b.open)-1]].End = 90
	b.open = b.open[:len(b.open)-1]
	b.recs[0].End = 100
	b.open = b.open[:0]
	l := tr.ledger()
	ns := func(s float64) int { return int(math.Round(s * 1e9)) }
	if got := ns(l.self(spRound)); got != 100-20-50 {
		t.Errorf("round self = %d ns, want 30", got)
	}
	if got := ns(l.self(spClientBatch)); got != 50-10-5 {
		t.Errorf("client batch self = %d ns, want 35", got)
	}
	if got := ns(l.layerSelf["transport"]); got != 10 {
		t.Errorf("transport busy self = %d ns, want 10 (the read is waiting)", got)
	}
	if got := ns(l.layerSelf["harness"]); got != 30+20 {
		t.Errorf("harness busy self = %d ns, want 50", got)
	}
	if got, want := l.residualFrac(), 50.0/95.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("residual = %v, want %v", got, want)
	}
}
