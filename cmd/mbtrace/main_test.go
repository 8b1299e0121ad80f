package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mburst/internal/collector"
	"mburst/internal/ptrace"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/trace"
)

// span builds a minimal top-level span for dump-merging tests.
func span(id ptrace.TraceID, stage ptrace.Stage, rack uint32, start, stop int64) ptrace.Span {
	return ptrace.Span{
		Trace: id, Stage: stage, Rack: rack,
		Start: simclock.Epoch.Add(simclock.Duration(start)),
		Stop:  simclock.Epoch.Add(simclock.Duration(stop)),
	}
}

func writeDump(t *testing.T, path string, spans []ptrace.Span) {
	t.Helper()
	data, err := json.Marshal(ptrace.Dump{Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fleetDir lays down what makes a directory a fleet — a campaign.json
// carrying a placement — plus one empty subdirectory per shard.
func fleetDir(t *testing.T, shards int) (string, shard.Placement) {
	t.Helper()
	dir := t.TempDir()
	pl, err := shard.Uniform(shards, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteFleetMeta(dir, trace.Meta{
		App: "web", NumServers: 4, NumUplinks: 2, ServerSpeed: 10e9, UplinkSpeed: 40e9,
		Interval: 25 * simclock.Microsecond, WindowDur: simclock.Millisecond, Windows: shards, Seed: 1,
		Counters:  []collector.CounterSpec{{Port: 1}},
		Placement: &pl,
	}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if err := os.MkdirAll(filepath.Join(dir, pl.Name(s)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return dir, pl
}

// TestLoadDumpFleetDirMerges lays down a fleet directory whose shard
// subdirectories each hold a saved /spans response, and checks loadDump
// merges them into one canonical stream — including a trace whose
// client and server halves landed on different shards.
func TestLoadDumpFleetDirMerges(t *testing.T) {
	dir, pl := fleetDir(t, 2)
	// Trace 1 is split across both shard dumps; trace 2 lives on one.
	writeDump(t, filepath.Join(dir, pl.Name(0), "spans.json"), []ptrace.Span{
		span(1, "poll.read", 0, 0, 100),
		span(2, "poll.read", 1, 50, 150),
	})
	writeDump(t, filepath.Join(dir, pl.Name(1), "spans.json"), []ptrace.Span{
		span(1, "server.ingest", 0, 100, 300),
	})

	d, err := loadDump(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != 3 {
		t.Fatalf("merged %d spans, want 3: %+v", len(d.Spans), d.Spans)
	}
	views := ptrace.GroupTraces(d.Spans)
	if len(views) != 2 {
		t.Fatalf("merged %d traces, want 2", len(views))
	}
	// The split trace joined: both its halves under one view.
	for _, v := range views {
		if v.ID == 1 && len(v.Spans) != 2 {
			t.Errorf("cross-shard trace holds %d spans, want 2", len(v.Spans))
		}
	}
	// And the merged dump renders like any single-collector dump.
	var buf bytes.Buffer
	ptrace.WriteReport(&buf, d.Spans, 2)
	if !strings.Contains(buf.String(), "3 spans, 2 traces") {
		t.Errorf("render header wrong:\n%s", buf.String())
	}
}

// TestLoadDumpFleetDirWithoutSpans: a fleet directory whose shards were
// run without -tracing is a clear error, not an empty render.
func TestLoadDumpFleetDirWithoutSpans(t *testing.T) {
	dir, _ := fleetDir(t, 1)
	if _, err := loadDump(dir, ""); err == nil || !strings.Contains(err.Error(), "spans.json") {
		t.Fatalf("missing dumps not surfaced: %v", err)
	}
}

// TestLoadDumpFleetDirEscapingShard: the shard names come from
// campaign.json on disk; one that points out of the fleet directory — at
// a perfectly good spans.json — is refused, not followed.
func TestLoadDumpFleetDirEscapingShard(t *testing.T) {
	dir, pl := fleetDir(t, 1)
	outside := filepath.Join(filepath.Dir(dir), "elsewhere")
	if err := os.Rename(filepath.Join(dir, pl.Name(0)), outside); err != nil {
		t.Fatal(err)
	}
	writeDump(t, filepath.Join(outside, "spans.json"), []ptrace.Span{span(1, "poll.read", 0, 0, 100)})
	path := filepath.Join(dir, trace.MetaFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"shard_000"`), []byte(`"../elsewhere"`), 1)
	if bytes.Equal(edited, data) {
		t.Fatal("campaign.json holds no shard_000 name to edit")
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadDump(dir, ""); err == nil || !strings.Contains(err.Error(), "not inside the fleet directory") {
		t.Errorf("escaping shard name not rejected: %v", err)
	}
}

// tracedDump records two batches on a tracer and saves its /spans dump
// to a file, returning both.
func tracedDump(t *testing.T) (*ptrace.Tracer, string) {
	t.Helper()
	tr := ptrace.New(ptrace.Config{Capacity: 16})
	for rack := uint32(0); rack < 2; rack++ {
		first := simclock.Epoch.Add(simclock.Micros(int64(rack) * 100))
		b := tr.Batch(rack, 0, first)
		b.Record(ptrace.Span{Stage: ptrace.StagePollRead, Start: first, Stop: first.Add(simclock.Micros(200)), Samples: 8, Bytes: 100})
		b.Record(ptrace.Span{Stage: ptrace.StageServerIngest, Start: first.Add(simclock.Micros(200)), Stop: first.Add(simclock.Micros(260 + 40*int64(rack)))})
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteDump(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return tr, path
}

// runOK drives run and requires exit 0 with nothing on stderr.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("run %v = %d, stderr %q", args, code, stderr.String())
	}
	return stdout.String()
}

// TestRunInPrintsWriteReport: -in prints exactly ptrace.WriteReport of
// the dump.
func TestRunInPrintsWriteReport(t *testing.T) {
	tr, path := tracedDump(t)
	var want bytes.Buffer
	ptrace.WriteReport(&want, tr.Snapshot(), 1)
	if got := runOK(t, "-in", path, "-n", "1"); got != want.String() {
		t.Errorf("-in output differs from WriteReport:\ngot:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestRunURLMatchesIn: -url against a tracer's /spans prints the same
// bytes as -in of that tracer's saved dump.
func TestRunURLMatchesIn(t *testing.T) {
	tr, path := tracedDump(t)
	srv := httptest.NewServer(tr.SpansHandler())
	defer srv.Close()
	fromFile := runOK(t, "-in", path)
	if got := runOK(t, "-url", srv.URL); got != fromFile {
		t.Errorf("-url output differs from -in:\ngot:\n%s\nwant:\n%s", got, fromFile)
	}
	if !strings.HasPrefix(fromFile, "4 spans, 2 traces\n") {
		t.Errorf("report header wrong:\n%s", fromFile)
	}
}

// TestRunFailures: conflicting sources and an empty dump each exit 1
// with one line naming the problem.
func TestRunFailures(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.json")
	writeDump(t, empty, nil)
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-in", empty, "-url", "http://127.0.0.1:1"}, "mbtrace: -in and -url are mutually exclusive\n"},
		{[]string{"-in", empty}, "mbtrace: dump holds no spans\n"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 || stderr.String() != tc.msg || stdout.Len() != 0 {
			t.Errorf("run %v = %d, stderr %q, stdout %q; want 1, %q, nothing", tc.args, code, stderr.String(), stdout.String(), tc.msg)
		}
	}
}
