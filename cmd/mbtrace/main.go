// Command mbtrace renders a pipeline span dump (internal/ptrace) as the
// text report /tracez serves (ptrace.WriteReport): the per-stage latency
// breakdown, a waterfall for each of the slowest traces, and each slow
// trace's critical path — the sequence of stage segments a batch's
// end-to-end latency actually flowed through.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"mburst/internal/ptrace"
	"mburst/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command — flag parsing included — returning the exit
// code. Split from main so the tests drive the exact production path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "span dump file (mbsim -trace output)")
	url := fs.String("url", "", "fetch the dump from a daemon's /spans endpoint")
	n := fs.Int("n", 5, "number of slowest traces to render")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	dump, err := loadDump(*in, *url)
	if err != nil {
		fmt.Fprintln(stderr, "mbtrace:", err)
		return 1
	}
	if len(dump.Spans) == 0 {
		fmt.Fprintln(stderr, "mbtrace: dump holds no spans")
		return 1
	}
	ptrace.WriteReport(stdout, dump.Spans, *n)
	return 0
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
