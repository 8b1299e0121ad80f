package ptrace

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"mburst/internal/simclock"
)

// This file aggregates raw spans into per-trace views, per-stage latency
// breakdowns and the critical path of a trace, and renders them as the
// text report that /tracez serves and cmd/mbtrace prints. Everything
// here is a pure function of the span set, so renderings of
// byte-identical dumps are themselves byte-identical.

// TraceView groups one trace's spans, in canonical stage order.
type TraceView struct {
	ID    TraceID
	Rack  uint32
	Epoch uint32
	// Start/Stop bound the whole chain; Samples/Bytes describe the batch
	// (taken from the first span that carries them).
	Start   simclock.Time
	Stop    simclock.Time
	Samples int
	Bytes   int
	Spans   []Span
}

// Duration returns the trace's end-to-end extent.
func (v TraceView) Duration() simclock.Duration { return v.Stop.Sub(v.Start) }

// GroupTraces assembles per-trace views from a span set, sorted by start
// time then trace ID.
func GroupTraces(spans []Span) []TraceView {
	byID := make(map[TraceID]*TraceView)
	var order []TraceID
	for i := range spans {
		sp := &spans[i]
		v := byID[sp.Trace]
		if v == nil {
			v = &TraceView{ID: sp.Trace, Rack: sp.Rack, Epoch: sp.Epoch, Start: sp.Start, Stop: sp.Stop}
			byID[sp.Trace] = v
			order = append(order, sp.Trace)
		}
		if sp.Start < v.Start {
			v.Start = sp.Start
		}
		if sp.Stop > v.Stop {
			v.Stop = sp.Stop
		}
		if v.Samples == 0 && sp.Samples > 0 {
			v.Samples = sp.Samples
		}
		if v.Bytes == 0 && sp.Bytes > 0 {
			v.Bytes = sp.Bytes
		}
		v.Spans = append(v.Spans, *sp)
	}
	out := make([]TraceView, 0, len(order))
	for _, id := range order {
		v := byID[id]
		sortSpans(v.Spans)
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SlowestN returns the n traces with the largest end-to-end duration,
// slowest first (ties broken by trace ID for determinism).
func SlowestN(views []TraceView, n int) []TraceView {
	out := append([]TraceView(nil), views...)
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Duration(), out[j].Duration()
		if di != dj {
			return di > dj
		}
		return out[i].ID < out[j].ID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// StageStat summarizes one stage's latency distribution across a span
// set.
type StageStat struct {
	Stage Stage
	Count int
	Min   simclock.Duration
	P50   simclock.Duration
	P99   simclock.Duration
	Max   simclock.Duration
	Total simclock.Duration
}

// StageBreakdown computes per-stage latency statistics, in chain order.
// Stages with no spans are omitted.
func StageBreakdown(spans []Span) []StageStat {
	byStage := make(map[Stage][]simclock.Duration)
	for i := range spans {
		byStage[spans[i].Stage] = append(byStage[spans[i].Stage], spans[i].Duration())
	}
	var out []StageStat
	for _, stage := range Stages {
		ds := byStage[stage]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		st := StageStat{
			Stage: stage,
			Count: len(ds),
			Min:   ds[0],
			P50:   ds[(len(ds)-1)/2],
			P99:   ds[(len(ds)-1)*99/100],
			Max:   ds[len(ds)-1],
		}
		for _, d := range ds {
			st.Total += d
		}
		out = append(out, st)
	}
	return out
}

// PathSeg is one segment of a trace's critical path: either time inside a
// stage span or an uncovered gap between stages.
type PathSeg struct {
	// Stage is the owning stage, or "" for a gap.
	Stage Stage
	Start simclock.Time
	Stop  simclock.Time
}

// Duration returns the segment's extent.
func (s PathSeg) Duration() simclock.Duration { return s.Stop.Sub(s.Start) }

// CriticalPath decomposes a trace's [Start, Stop] extent into the
// sequence of span segments that cover it — the chain a batch's latency
// actually flowed through. When spans overlap (a backoff child inside
// client.send), the earlier-ranked span owns the overlap; uncovered time
// appears as gap segments with an empty Stage.
func CriticalPath(v TraceView) []PathSeg {
	var out []PathSeg
	cur := v.Start
	for i := range v.Spans {
		sp := &v.Spans[i]
		if sp.Stop <= cur {
			continue
		}
		if sp.Start > cur {
			out = append(out, PathSeg{Start: cur, Stop: sp.Start})
			cur = sp.Start
		}
		out = append(out, PathSeg{Stage: sp.Stage, Start: cur, Stop: sp.Stop})
		cur = sp.Stop
	}
	if cur < v.Stop {
		out = append(out, PathSeg{Start: cur, Stop: v.Stop})
	}
	return out
}

// WriteReport writes the full text report: stage breakdown, then
// waterfall and critical path for the slowest n traces.
func WriteReport(w io.Writer, spans []Span, n int) {
	views := GroupTraces(spans)
	fmt.Fprintf(w, "%d spans, %d traces\n\n", len(spans), len(views))

	fmt.Fprintln(w, "stage latency breakdown:")
	fmt.Fprintf(w, "  %-14s %7s %12s %12s %12s %12s %14s\n",
		"stage", "count", "min", "p50", "p99", "max", "total")
	for _, st := range StageBreakdown(spans) {
		fmt.Fprintf(w, "  %-14s %7d %12s %12s %12s %12s %14s\n",
			st.Stage, st.Count, st.Min, st.P50, st.P99, st.Max, st.Total)
	}

	slow := SlowestN(views, n)
	fmt.Fprintf(w, "\nslowest %d traces:\n", len(slow))
	for _, v := range slow {
		renderTrace(w, v)
	}
}

// laneWidth is the text waterfall lane width in characters.
const laneWidth = 64

// renderTrace writes one trace's waterfall and critical path.
func renderTrace(w io.Writer, v TraceView) {
	fmt.Fprintf(w, "\ntrace %016x rack %d epoch %d samples %d bytes %d span %s\n",
		uint64(v.ID), v.Rack, v.Epoch, v.Samples, v.Bytes, v.Duration())
	for _, sp := range v.Spans {
		lane := []byte(strings.Repeat(".", laneWidth))
		lo, hi := laneCell(v, sp.Start), laneCell(v, sp.Stop)
		if hi <= lo {
			hi = lo + 1
		}
		fill := byte('#')
		if sp.Parent != "" {
			fill = '~'
		}
		for i := lo; i < hi && i < laneWidth; i++ {
			lane[i] = fill
		}
		detail := ""
		if sp.Verdict != "" {
			detail += " [" + string(sp.Verdict) + "]"
		}
		if sp.Fault != "" {
			detail += " fault=" + sp.Fault
		}
		fmt.Fprintf(w, "  %-14s |%s| %s%s\n", sp.Stage, lane, sp.Duration(), detail)
	}
	fmt.Fprintf(w, "  critical path:")
	for i, seg := range CriticalPath(v) {
		name := string(seg.Stage)
		if name == "" {
			name = "(gap)"
		}
		if i > 0 {
			fmt.Fprintf(w, " ->")
		}
		fmt.Fprintf(w, " %s %s", name, seg.Duration())
	}
	fmt.Fprintln(w)
}

// laneCell maps a simulated time onto the trace's text lane, clamped to
// [0, laneWidth]. The scaling multiply is done in 128 bits, so a dump
// whose times span most of the int64 range cannot overflow it.
func laneCell(v TraceView, at simclock.Time) int {
	if v.Stop <= v.Start || at <= v.Start {
		return 0
	}
	if at >= v.Stop {
		return laneWidth
	}
	hi, lo := bits.Mul64(laneWidth, uint64(at)-uint64(v.Start))
	cell, _ := bits.Div64(hi, lo, uint64(v.Stop)-uint64(v.Start))
	return int(cell)
}
