package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"mburst/internal/collector"
	"mburst/internal/obs"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// TestAgentIntoDurableShard drives run() the way the binary runs: the
// agent streams over a real loopback socket into an in-process durable
// shard, which checkpoints — ending its archive's segment — every three
// batches. The archive must dump exactly the samples that came off the
// socket, as many as the agent logs delivered, and its frame counts must
// add up to the frames received, with exactly the re-encodes the segment
// rolls call for.
func TestAgentIntoDurableShard(t *testing.T) {
	dir := t.TempDir()
	arch, err := trace.CreateArchive(filepath.Join(dir, "archive"), trace.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := collector.NewRecoveryMetrics(obs.NewRegistry())
	shard, err := collector.NewShard(collector.ShardConfig{
		Archive:         arch,
		CheckpointPath:  filepath.Join(dir, "checkpoint.mbc"),
		Every:           3,
		Stats:           &collector.IngestStats{},
		RecoveryMetrics: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	received := &collector.MemSink{}
	var sizes []int // samples per frame; the agent polls one counter
	sm := collector.NewServerMetrics(obs.NewRegistry())
	srv := collector.ServeConfigured(ln, func(b *wire.Batch) {
		received.Handle(b)
		sizes = append(sizes, len(b.Samples))
		shard.Handle(b)
	}, collector.ServerConfig{Metrics: sm})
	defer srv.Close()

	var stderr bytes.Buffer
	code := run([]string{"-collector", srv.Addr().String(), "-app", "cache", "-servers", "8",
		"-dur", "500ms", "-rack", "7", "-epoch", "1"}, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	// The agent has closed its connection; wait for the server to read to
	// its end.
	for deadline := time.Now().Add(10 * time.Second); sm.Conns.Value() == 0 || sm.ActiveConns.Value() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the agent's connection never ended at the server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := shard.Err(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	m := regexp.MustCompile(`delivered=(\d+) dropped=0 `).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no clean delivery line in the agent's log:\n%s", stderr.String())
	}
	delivered, _ := strconv.Atoi(m[1])
	want := received.Samples()
	if delivered == 0 || len(want) != delivered {
		t.Fatalf("the agent delivered %d samples, the collector received %d", delivered, len(want))
	}
	var got []wire.Sample
	if err := trace.IterArchive(filepath.Join(dir, "archive"), func(b *wire.Batch) error {
		got = append(got, b.Samples...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the archive dumps %d samples other than the %d the agent delivered", len(got), len(want))
	}

	// A segment's first frame continues the agent's stream, so the archive
	// encodes it; its chain then holds the agent's state — and frames pass
	// through again — once it has seen two of the series' samples, the
	// least that fixes a delta of deltas. So a roll costs one re-encode, or
	// two when the first frame after it carries a single sample.
	var wantEncoded, seen int
	synced := true
	for k, n := range sizes {
		if k > 0 && k%3 == 0 {
			synced, seen = false, 0
		}
		if !synced {
			wantEncoded++
			seen += n
			synced = seen >= 2
		}
	}
	frames := uint64(len(sizes))
	var man trace.ArchiveManifest
	data, err := os.ReadFile(filepath.Join(dir, "archive", trace.ArchiveManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	rolls := uint64(len(man.Segments) - 1)
	if rolls != (frames-1)/3 {
		t.Fatalf("%d frames in %d segments; the shard should have ended one every three", frames, len(man.Segments))
	}
	if frames < 6 {
		t.Fatalf("%d frames over %d segments exercise no segment roll", frames, len(man.Segments))
	}
	passed, encoded := rec.ArchivePassed.Value(), rec.ArchiveEncoded.Value()
	if encoded != uint64(wantEncoded) || passed != frames-encoded {
		t.Errorf("archive passed %d and encoded %d of %d frames; want the %d re-encodes its %d segment rolls call for, the rest passed",
			passed, encoded, frames, wantEncoded, rolls)
	}
}
