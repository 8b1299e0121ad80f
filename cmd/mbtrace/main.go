// Command mbtrace renders a pipeline span dump (internal/ptrace) as
// text: the per-stage latency breakdown, a waterfall for each of the
// slowest traces, and each slow trace's critical path — the sequence of
// stage segments a batch's end-to-end latency actually flowed through.
//
// Usage:
//
//	mbtrace -in spans.json [-n 5]
//	mbtrace -in /var/lib/mburst/fleet [-n 5]
//	mbtrace -url http://127.0.0.1:9903 [-n 5]
//
// -in reads a dump written by mbsim -trace (or a saved /spans response);
// -url fetches /spans from a running daemon's debug mux (the path is
// appended if missing). -in may also name a directory: a plain campaign
// directory is resolved to its spans.json, while a fleet campaign
// directory (one whose campaign.json carries a placement) merges the spans.json
// dump saved in each shard's subdirectory — each shard collector's
// /spans response — into one canonical stream, so a sharded campaign's
// traces render exactly like a single collector's. Because dumps are
// canonical and span times are simulated, rendering the same dump twice
// yields byte-identical output.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/trace"
)

func main() {
	in := flag.String("in", "", "span dump file (mbsim -trace output)")
	url := flag.String("url", "", "fetch the dump from a daemon's /spans endpoint")
	n := flag.Int("n", 5, "number of slowest traces to render")
	flag.Parse()

	dump, err := loadDump(*in, *url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbtrace:", err)
		os.Exit(1)
	}
	if len(dump.Spans) == 0 {
		fmt.Fprintln(os.Stderr, "mbtrace: dump holds no spans")
		os.Exit(1)
	}
	render(os.Stdout, dump.Spans, *n)
}

// spansFileName is the conventional span dump name inside campaign and
// shard directories (a saved /spans response).
const spansFileName = "spans.json"

// loadDump reads the span dump from a file, a directory (fleet or
// plain campaign), or a /spans endpoint.
func loadDump(in, url string) (ptrace.Dump, error) {
	switch {
	case in != "" && url != "":
		return ptrace.Dump{}, fmt.Errorf("-in and -url are mutually exclusive")
	case in != "":
		if fi, err := os.Stat(in); err == nil && fi.IsDir() {
			return loadDirDump(in)
		}
		f, err := os.Open(in)
		if err != nil {
			return ptrace.Dump{}, err
		}
		defer f.Close()
		return ptrace.ReadDump(f)
	case url != "":
		if !strings.HasSuffix(url, "/spans") {
			url = strings.TrimSuffix(url, "/") + "/spans"
		}
		resp, err := http.Get(url)
		if err != nil {
			return ptrace.Dump{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return ptrace.Dump{}, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
		}
		return ptrace.ReadDump(resp.Body)
	default:
		return ptrace.Dump{}, fmt.Errorf("one of -in or -url is required")
	}
}

// loadDirDump resolves a directory: a fleet campaign merges every
// shard's saved spans.json into one canonical dump; a plain campaign
// resolves to its own spans.json.
func loadDirDump(dir string) (ptrace.Dump, error) {
	meta, ok, err := trace.FleetMeta(dir)
	if err != nil {
		return ptrace.Dump{}, err
	}
	if !ok {
		return readDumpFile(filepath.Join(dir, spansFileName))
	}
	var dumps []ptrace.Dump
	for _, name := range meta.Placement.Shards {
		d, err := readDumpFile(filepath.Join(dir, name, spansFileName))
		if os.IsNotExist(err) {
			continue // shard ran without -tracing
		}
		if err != nil {
			return ptrace.Dump{}, fmt.Errorf("shard %s: %w", name, err)
		}
		dumps = append(dumps, d)
	}
	if len(dumps) == 0 {
		return ptrace.Dump{}, fmt.Errorf("%s: no shard holds a %s dump", dir, spansFileName)
	}
	return ptrace.MergeDumps(dumps...), nil
}

// readDumpFile reads one span dump file, passing through os.IsNotExist
// so fleet merging can skip untraced shards.
func readDumpFile(path string) (ptrace.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return ptrace.Dump{}, err
	}
	defer f.Close()
	return ptrace.ReadDump(f)
}

// render writes the full report: stage breakdown, then waterfall and
// critical path for the slowest n traces.
func render(w io.Writer, spans []ptrace.Span, n int) {
	views := ptrace.GroupTraces(spans)
	fmt.Fprintf(w, "%d spans, %d traces\n\n", len(spans), len(views))

	fmt.Fprintln(w, "stage latency breakdown:")
	fmt.Fprintf(w, "  %-14s %7s %12s %12s %12s %12s %14s\n",
		"stage", "count", "min", "p50", "p99", "max", "total")
	for _, st := range ptrace.StageBreakdown(spans) {
		fmt.Fprintf(w, "  %-14s %7d %12s %12s %12s %12s %14s\n",
			st.Stage, st.Count, st.Min, st.P50, st.P99, st.Max, st.Total)
	}

	slow := ptrace.SlowestN(views, n)
	fmt.Fprintf(w, "\nslowest %d traces:\n", len(slow))
	for _, v := range slow {
		renderTrace(w, v)
	}
}

// laneWidth is the text waterfall lane width in characters.
const laneWidth = 64

// renderTrace writes one trace's waterfall and critical path.
func renderTrace(w io.Writer, v ptrace.TraceView) {
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
	for i, seg := range ptrace.CriticalPath(v) {
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

// laneCell maps a simulated time onto the trace's text lane.
func laneCell(v ptrace.TraceView, at simclock.Time) int {
	if v.Duration() <= 0 {
		return 0
	}
	return int(int64(laneWidth) * int64(at.Sub(v.Start)) / int64(v.Duration()))
}
