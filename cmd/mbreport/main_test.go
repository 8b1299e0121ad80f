package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mburst/internal/core"
	"mburst/internal/simclock"
)

// TestUsageErrors pins the exit-2 paths: an unknown -balancer is one
// stderr line and no report; a flag the command does not define fails
// in parsing.
func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-quick", "-balancer", "bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown balancer: exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown balancer: stdout not empty:\n%s", stdout.String())
	}
	msg := strings.TrimSuffix(stderr.String(), "\n")
	if !strings.Contains(msg, `unknown balancer "bogus"`) || strings.Contains(msg, "\n") {
		t.Errorf("unknown balancer: stderr = %q, want one line naming it", msg)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "nosuchflag") {
		t.Errorf("bad flag: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// TestReportMatchesRunAll runs the production run() on a small quick
// campaign, serially and on two workers: between its header and its
// timing line it prints exactly core.RunAll's report for the same config.
func TestReportMatchesRunAll(t *testing.T) {
	cfg := core.QuickConfig()
	cfg.WindowDur = 20 * simclock.Millisecond
	exp, err := core.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Format() + "\n"
	header := "mburst report: 1 racks × 2 windows × 20ms per app, 16 servers/rack, seed 1\n\n"
	for _, workers := range []string{"1", "2"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "-window", "20ms", "-workers", workers}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("workers=%s: exit %d: %s", workers, code, stderr.String())
		}
		out := stdout.String()
		end := strings.LastIndex(out, "\ncompleted in ")
		if !strings.HasPrefix(out, header) || end < len(header) {
			t.Fatalf("workers=%s: output lacks the header or the timing line:\n%s", workers, out)
		}
		if got := out[len(header):end]; got != want {
			t.Errorf("workers=%s: report differs from RunAll's\n--- run\n%s\n--- RunAll\n%s", workers, got, want)
		}
	}
}
