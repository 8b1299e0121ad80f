package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors pins the exit-2 paths: one ERROR line and nothing on
// disk. A non-positive -interval is among them because RecordCampaign
// reads it as "the 25 µs default" and the span-ring sizing divides by it;
// -wire because MBW3 is the one format written.
func TestUsageErrors(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	for name, extra := range map[string][]string{
		"interval 0":           {"-interval", "0"},
		"interval 0 traced":    {"-interval", "0", "-trace", spans},
		"interval -1us":        {"-interval", "-1us"},
		"interval -1us traced": {"-interval", "-1us", "-trace", spans},
		"removed -wire":        {"-wire", "mbw3"},
		"unknown plan":         {"-plan", "bogus"},
		"unknown app":          {"-app", "nosuchapp"},
		"malformed -faults":    {"-faults", "stuck@"},
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace")
			args := append([]string{"-out", out, "-racks", "1", "-windows", "1", "-window", "1ms", "-servers", "4"}, extra...)
			var stderr bytes.Buffer
			if code := run(context.Background(), args, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			msg := strings.TrimSuffix(stderr.String(), "\n")
			if !strings.Contains(msg, "level=ERROR") || strings.Contains(msg, "\n") {
				t.Errorf("stderr = %q, want one ERROR line", msg)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("a rejected flag set left %s behind (stat: %v)", out, err)
			}
		})
	}
}

// TestRecordsMBW3 runs one tiny recording through the production run():
// the segments are MBW3 and campaign.json says so.
func TestRecordsMBW3(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace")
	args := []string{"-app", "hadoop", "-out", out, "-racks", "1", "-windows", "2", "-window", "5ms",
		"-servers", "4", "-interval", "250us", "-plan", "allports", "-workers", "1"}
	var stderr bytes.Buffer
	if code := run(context.Background(), args, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	seg, err := os.ReadFile(filepath.Join(out, "seg_000001.mbw"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(seg, []byte("MBW3")) {
		t.Errorf("seg_000001.mbw opens with %q, want MBW3", seg[:4])
	}
	meta, err := os.ReadFile(filepath.Join(out, "campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(meta, []byte(`"wire_format": "mbw3"`)) {
		t.Errorf("campaign.json does not record the format:\n%s", meta)
	}
	if !strings.Contains(stderr.String(), "interval=250µs") {
		t.Errorf("closing log line does not carry the interval recorded at:\n%s", stderr.String())
	}
}
