package ptrace

import (
	"math"
	"strings"
	"testing"

	"mburst/internal/simclock"
)

func TestGroupTracesAndSlowest(t *testing.T) {
	tr := New(Config{Capacity: 64})
	chainOneBatch(tr, 1, at(0), 8, 100)     // 8 samples → short chain
	chainOneBatch(tr, 2, at(1000), 64, 800) // heavier batch → longer chain
	views := GroupTraces(tr.Snapshot())
	if len(views) != 2 {
		t.Fatalf("got %d views, want 2", len(views))
	}
	if views[0].Rack != 1 || views[1].Rack != 2 {
		t.Fatalf("views not in start order: racks %d, %d", views[0].Rack, views[1].Rack)
	}
	for _, v := range views {
		if len(v.Spans) != 7 {
			t.Errorf("rack %d view has %d spans, want 7", v.Rack, len(v.Spans))
		}
		if v.Spans[0].Stage != StagePollRead || v.Spans[len(v.Spans)-1].Stage != StageFiguresApply {
			t.Errorf("rack %d spans out of chain order", v.Rack)
		}
		if v.Duration() <= 0 {
			t.Errorf("rack %d view duration %v", v.Rack, v.Duration())
		}
	}
	slow := SlowestN(views, 1)
	if len(slow) != 1 || slow[0].Rack != 2 {
		t.Fatalf("SlowestN picked rack %d, want the heavier batch on rack 2", slow[0].Rack)
	}
}

func TestStageBreakdown(t *testing.T) {
	tr := New(Config{Capacity: 64})
	chainOneBatch(tr, 1, at(0), 8, 100)
	chainOneBatch(tr, 1, at(5000), 8, 100)
	stats := StageBreakdown(tr.Snapshot())
	if len(stats) != 7 {
		t.Fatalf("got %d stages, want 7", len(stats))
	}
	if stats[0].Stage != StagePollRead {
		t.Errorf("first stage %s, want poll.read", stats[0].Stage)
	}
	for _, st := range stats {
		if st.Count != 2 {
			t.Errorf("%s count %d, want 2", st.Stage, st.Count)
		}
		if st.Min > st.P50 || st.P50 > st.P99 || st.P99 > st.Max {
			t.Errorf("%s quantiles out of order: %+v", st.Stage, st)
		}
	}
}

func TestCriticalPathCoversTrace(t *testing.T) {
	tr := New(Config{Capacity: 64})
	chainOneBatch(tr, 1, at(0), 16, 200)
	v := GroupTraces(tr.Snapshot())[0]
	path := CriticalPath(v)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	if path[0].Start != v.Start || path[len(path)-1].Stop != v.Stop {
		t.Fatalf("path [%v, %v] does not cover view [%v, %v]",
			path[0].Start, path[len(path)-1].Stop, v.Start, v.Stop)
	}
	var total simclock.Duration
	for i, seg := range path {
		if seg.Duration() < 0 {
			t.Errorf("segment %d negative: %+v", i, seg)
		}
		if i > 0 && seg.Start != path[i-1].Stop {
			t.Errorf("segment %d not contiguous: starts %v after %v", i, seg.Start, path[i-1].Stop)
		}
		total += seg.Duration()
	}
	if total != v.Duration() {
		t.Errorf("path total %v != view duration %v", total, v.Duration())
	}
	// A modeled chain is gapless: no empty-stage segments.
	for _, seg := range path {
		if seg.Stage == "" {
			t.Errorf("unexpected gap [%v, %v] in back-to-back chain", seg.Start, seg.Stop)
		}
	}
}

func TestCriticalPathChildOverlap(t *testing.T) {
	// A backoff child inside client.send: the parent (earlier rank) owns
	// the overlap and the path stays contiguous.
	tr := New(Config{Capacity: 16})
	h := tr.Batch(1, 0, at(0))
	h.Record(Span{Stage: StageClientBackoff, Parent: StageClientSend, Start: at(10), Stop: at(20)})
	h.Record(Span{Stage: StageClientSend, Start: at(0), Stop: at(30)})
	v := GroupTraces(tr.Snapshot())[0]
	path := CriticalPath(v)
	if len(path) != 1 || path[0].Stage != StageClientSend {
		t.Fatalf("path = %+v, want single client.send segment", path)
	}
}

// TestReportSurvivesExtremeTimes renders a dump whose span times are far
// enough apart that laneWidth·offset overflows int64; the waterfall lane
// index used to go negative and panic.
func TestReportSurvivesExtremeTimes(t *testing.T) {
	d, err := ReadDump(strings.NewReader(`{"spans":[` +
		`{"trace":1,"stage":"poll.read","start_ns":0,"end_ns":0},` +
		`{"trace":1,"stage":"server.ingest","start_ns":216172782113783808,"end_ns":288230376151711743}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	WriteReport(&out, d.Spans, 20)
	if !strings.HasPrefix(out.String(), "2 spans, 1 traces\n") {
		t.Errorf("report opens %q", strings.SplitN(out.String(), "\n", 2)[0])
	}
	if !strings.Contains(out.String(), "server.ingest  |"+strings.Repeat(".", 48)+strings.Repeat("#", 16)+"|") {
		t.Errorf("server.ingest lane not the last quarter:\n%s", out.String())
	}
}

// TestLaneCellMatchesUnclampedFormula pins laneCell to the plain formula
// laneWidth·(at−start)/duration wherever that does not overflow, clamped
// to [0, laneWidth].
func TestLaneCellMatchesUnclampedFormula(t *testing.T) {
	for _, dur := range []int64{1, 3, 64, 1000, 12345, 1 << 40, math.MaxInt64 / laneWidth} {
		v := TraceView{Start: at(7), Stop: at(7).Add(simclock.Duration(dur))}
		for _, off := range []int64{-dur, -1, 0, 1, dur / 3, dur / 2, dur - 1, dur, dur + 1, 2 * dur} {
			if off > math.MaxInt64/laneWidth {
				continue // the plain formula overflows here
			}
			want := laneWidth * off / dur
			want = max(0, min(laneWidth, want))
			if got := laneCell(v, v.Start.Add(simclock.Duration(off))); int64(got) != want {
				t.Errorf("duration %d, offset %d: cell %d, want %d", dur, off, got, want)
			}
		}
	}
}
