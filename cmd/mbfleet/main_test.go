package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFleetDirectory runs a small fleet through the production run(): the
// oracle agrees, and the directory is campaign.json plus one store per
// placement shard.
func TestFleetDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet")
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-racks", "8", "-shards", "2", "-out", dir, "-oracle"}, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	log := stderr.String()
	if !strings.Contains(log, "byte-exact against the single-collector oracle") {
		t.Errorf("no byte-exact line:\n%s", log)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if want := []string{"campaign.json", "shard_000", "shard_001"}; !slices.Equal(got, want) {
		t.Errorf("fleet directory holds %v, want %v", got, want)
	}
	for _, shard := range got[1:] {
		if _, err := os.Stat(filepath.Join(dir, shard, "archive.json")); err != nil {
			t.Errorf("shard store %s: %v", shard, err)
		}
	}
}

// TestUsageErrors pins the exit-2 paths: one ERROR line and no fleet
// directory.
func TestUsageErrors(t *testing.T) {
	for name, extra := range map[string][]string{
		"unknown app":       {"-app", "nosuchapp"},
		"malformed -faults": {"-faults", "kill@"},
		"unknown flag":      {"-nosuchflag"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "fleet")
			var stderr bytes.Buffer
			args := append([]string{"-racks", "2", "-shards", "2", "-out", dir}, extra...)
			if code := run(context.Background(), args, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			msg := strings.TrimSuffix(stderr.String(), "\n")
			if !strings.Contains(msg, "level=ERROR") || strings.Contains(msg, "\n") {
				t.Errorf("stderr = %q, want one ERROR line", msg)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("a rejected flag set left %s behind (stat: %v)", dir, err)
			}
		})
	}
}
