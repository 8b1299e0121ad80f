package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mburst/internal/collector"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// fixture is an MBW1 recording a parent build wrote; the replay sends it
// as MBW3.
const fixture = "testdata/trace_v1_parent"

// fixtureSamples counts the fixture's samples through the archive reader,
// independently of the replay path.
func fixtureSamples(t *testing.T) int {
	t.Helper()
	n := 0
	if err := trace.IterArchive(fixture, func(b *wire.Batch) error {
		n += len(b.Samples)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("fixture holds no samples")
	}
	return n
}

// TestReplayIntoCollector drives run() the way the binary runs: an
// unpaced replay of the fixture into an in-process collector on a
// loopback socket. The collector must receive every sample, and the count
// run() prints must equal both.
func TestReplayIntoCollector(t *testing.T) {
	want := fixtureSamples(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &collector.MemSink{}
	srv := collector.ServeConfigured(ln, sink.Handle, collector.ServerConfig{})
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-trace", fixture, "-collector", srv.Addr().String(), "-unpaced"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var windows, batches, printed int
	if _, err := fmt.Sscanf(stdout.String(), "mbreplay: %d windows, %d batches, %d samples", &windows, &batches, &printed); err != nil {
		t.Fatalf("stdout %q: %v", stdout.String(), err)
	}
	if printed != want {
		t.Errorf("run() printed %d samples, the fixture holds %d", printed, want)
	}
	// run() returns once the last batch is written; the server may still
	// be decoding it.
	deadline := time.Now().Add(10 * time.Second)
	for len(sink.Samples()) < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(sink.Samples()); got != want {
		t.Errorf("collector received %d samples, want %d", got, want)
	}
	if err := srv.LastErr(); err != nil {
		t.Errorf("collector decode error: %v", err)
	}
}

// TestExitCodes: usage errors exit 2, an unreachable collector exits 1,
// and -h exits 0.
func TestExitCodes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"missing -trace", []string{"-unpaced"}, 2, "-trace is required"},
		{"closed collector", []string{"-trace", fixture, "-collector", closed, "-unpaced"}, 1, "mbreplay:"},
		{"help", []string{"-h"}, 0, "Usage"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d; stderr: %s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderr)
			}
		})
	}
}
