package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// testdata/trace is a 1-rack × 2-window hadoop all-ports campaign at
// 250 µs (mbsim -app hadoop -racks 1 -windows 2 -servers 6 -window 20ms
// -interval 250us -plan allports -wire mbw3). The goldens were written by
// the last mbanalyze that still had a materializing mode, which printed
// the same bytes with and without -stream; they pin that the surviving
// engine still does.

// TestAnalyzeGolden runs every analysis kind, as a summary and as -cdf,
// through the production run() and compares stdout byte-for-byte.
func TestAnalyzeGolden(t *testing.T) {
	cases := map[string][]string{
		"hotshare_threshold": {"-analysis", "hotshare", "-threshold", "0.2"},
	}
	for _, kind := range []string{"bursts", "gaps", "util", "markov", "hotshare"} {
		cases[kind] = []string{"-analysis", kind}
		cases[kind+"_cdf"] = []string{"-analysis", kind, "-cdf"}
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-trace", filepath.Join("testdata", "trace")}, args...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to write it)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output diverges from golden:\n--- got ---\n%s\n--- want ---\n%s", stdout.Bytes(), want)
			}
		})
	}
}

// TestUsageErrors pins the exit-2 paths, including the removed -stream
// flag: bounded memory is the only behaviour, not an option.
func TestUsageErrors(t *testing.T) {
	trace := filepath.Join("testdata", "trace")
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"stream-flag-gone": {[]string{"-trace", trace, "-stream"}, "flag provided but not defined: -stream"},
		"no-trace":         {nil, "-trace is required"},
		"unknown-analysis": {[]string{"-trace", trace, "-analysis", "nosuch"}, `unknown analysis "nosuch"`},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
		})
	}
}

// TestFleetDirRefused: a fleet directory's campaign.json counts racks
// where a recording's counts windows, and its samples live in the shard
// archives; trace.Open says so and mbanalyze passes it on instead of
// "no readable windows". The fixture is mbdump's parent-written fleet
// directory.
func TestFleetDirRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	fleet := filepath.Join("..", "mbdump", "testdata", "fleet_parent")
	if code := run([]string{"-trace", fleet}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "fleet campaign") || !strings.Contains(stderr.String(), "per-shard archives") {
		t.Errorf("stderr = %q, want it to say the trace is a fleet campaign held in per-shard archives", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}
