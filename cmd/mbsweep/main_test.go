package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestUsageErrors pins the exit-2 paths: a value -sweep or -app does not
// know is one error line and no sweep, not a silent "completed in 0s".
func TestUsageErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"unknown sweep": {[]string{"-sweep", "bogus"}, `unknown sweep "bogus"`},
		"unknown app":   {[]string{"-sweep", "threshold", "-app", "nosuchapp"}, "nosuchapp"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			msg := strings.TrimSuffix(stderr.String(), "\n")
			if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Errorf("stderr = %q, want one line mentioning %q", msg, tc.want)
			}
		})
	}
}

// TestThresholdSweep runs one tiny sweep through the production run(): the
// hot-threshold table, one row per criterion, then the timing line.
func TestThresholdSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-sweep", "threshold", "-app", "hadoop", "-window", "20ms", "-servers", "8", "-workers", "1"}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "sweep hot-threshold (varying threshold)\n") {
		t.Errorf("output does not open with the hot-threshold table:\n%s", out)
	}
	for _, row := range []string{"20%", "30%", "40%", "50%", "60%", "70%", "80%"} {
		if !strings.Contains(out, "\n  "+row+" ") {
			t.Errorf("no %s row:\n%s", row, out)
		}
	}
	if strings.Contains(out, "sweep sampling-interval") || !strings.Contains(out, "\ncompleted in ") {
		t.Errorf("want only the threshold sweep and the timing line:\n%s", out)
	}
}
