package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenFleetDir lays down a tiny fleet campaign directory by hand:
// four racks routed over two shards by a real placement, each shard
// archive holding its racks' batches in admission (time) order. The
// content is a pure function of the constants below, so the dump is
// byte-stable.
func goldenFleetDir(t *testing.T) string {
	t.Helper()
	const racks, shards = 4, 2
	dir := t.TempDir()
	pl, err := shard.Uniform(shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	writers := make([]*trace.ArchiveWriter, shards)
	for s := 0; s < shards; s++ {
		w, err := trace.CreateArchive(filepath.Join(dir, pl.Name(s)), trace.ArchiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		writers[s] = w
	}
	// Admission order per shard: batch rounds outer, racks inner —
	// the interleaving a live fan-in produces.
	for i := 0; i < 3; i++ {
		for r := 0; r < racks; r++ {
			owner := pl.ShardOf(uint32(r))
			b := &wire.Batch{Rack: uint32(r), Epoch: 1}
			for k := 0; k < 2; k++ {
				n := i*2 + k
				b.Samples = append(b.Samples, wire.Sample{
					Time:  simclock.Epoch.Add(simclock.Micros(int64(n) * 25)),
					Port:  uint16(1 + r%2),
					Dir:   asic.TX,
					Kind:  asic.KindBytes,
					Value: uint64(r+1) * uint64(n) * 1500,
				})
			}
			if err := writers[owner].WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < shards; s++ {
		if err := writers[s].Close(); err != nil {
			t.Fatal(err)
		}
	}
	// What makes the directory a fleet: a campaign.json with the placement
	// (Windows counts racks there).
	if err := trace.WriteFleetMeta(dir, trace.Meta{
		App: "web", NumServers: 4, NumUplinks: 2, ServerSpeed: 10e9, UplinkSpeed: 40e9,
		Interval: 25 * simclock.Microsecond, WindowDur: simclock.Millisecond, Windows: racks, Seed: 1,
		Counters:  []collector.CounterSpec{{Port: 1, Dir: asic.TX, Kind: asic.KindBytes}},
		Placement: &pl,
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFleetDumpGolden pins the storage-order presentation of a fleet
// directory: shard 0's archive in its admission order, then shard 1's,
// so each rack's batches in time order, and totals summed across
// shards — byte-for-byte.
func TestFleetDumpGolden(t *testing.T) {
	checkGolden(t, "fleet.golden", mbdump(t, "-in", goldenFleetDir(t), "-samples", "3"))
}

// mbdump runs the command on args and returns what it printed, failing
// the test unless it exits 0.
func mbdump(t *testing.T, args ...string) []byte {
	t.Helper()
	var out, stderr bytes.Buffer
	if code := run(args, &out, &stderr); code != 0 {
		t.Fatalf("mbdump %s: exit %d: %s", strings.Join(args, " "), code, stderr.Bytes())
	}
	return out.Bytes()
}

// mbdumpFails runs the command on args, which must fail to read their
// input: exit 1, and one "mbdump: " line on stderr, which it returns.
func mbdumpFails(t *testing.T, args ...string) string {
	t.Helper()
	var stderr bytes.Buffer
	code := run(args, io.Discard, &stderr)
	if msg := stderr.String(); code != 1 || !strings.HasPrefix(msg, "mbdump: ") || strings.Count(msg, "\n") != 1 {
		t.Errorf("mbdump %s: exit %d, stderr %q; want exit 1 and one mbdump: line", strings.Join(args, " "), code, msg)
	}
	return stderr.String()
}

// TestExitCodes: flags are parsed on mbdump's own flag set — exit 2 and
// one line for a usage error, 0 for -h, 1 for an input that cannot be
// read — and nothing reaches stdout on any of them.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{nil, 2, "mbdump: exactly one of -in and -checkpoint is required\n"},
		{[]string{"-in", "x", "-checkpoint", "y"}, 2, "mbdump: exactly one of -in and -checkpoint is required\n"},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-samples", "many", "-in", "x"}, 2, `invalid value "many" for flag -samples`},
		{[]string{"-h"}, 0, "Usage of mbdump:"},
		{[]string{"-in", filepath.Join(t.TempDir(), "none.mbw")}, 1, "mbdump: open "},
		{[]string{"-checkpoint", filepath.Join(t.TempDir(), "none.mbc")}, 1, "mbdump: open "},
	} {
		var out, stderr bytes.Buffer
		if code := run(tc.args, &out, &stderr); code != tc.code || out.Len() != 0 || !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("mbdump %q: exit %d, stdout %q, stderr %q; want exit %d with %q", tc.args, code, out.String(), stderr.String(), tc.code, tc.msg)
		}
	}
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dump diverges from %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestRecordedCampaignDumpGolden: a recorded campaign is an archive, so
// -in on the directory mbsim -out writes dumps it window by window —
// and, recordings from before that being window dirs, so does -in on
// mbanalyze's parent-written fixture.
func TestRecordedCampaignDumpGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	w, err := trace.Create(dir, trace.Meta{
		App: "web", NumServers: 4, NumUplinks: 2, ServerSpeed: 10e9, UplinkSpeed: 40e9,
		Interval: 25 * simclock.Microsecond, WindowDur: simclock.Millisecond, Windows: 2, Seed: 1,
		Counters: []collector.CounterSpec{{Port: 1, Dir: asic.TX, Kind: asic.KindBytes}},
		Format:   "mbw3",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Window 1 first: the dump follows the index, not the write order.
	for _, idx := range []int{1, 0} {
		samples := make([]wire.Sample, 3+idx)
		for n := range samples {
			samples[n] = wire.Sample{
				Time: simclock.Epoch.Add(simclock.Micros(int64(n) * 25)),
				Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Value: uint64(idx+1) * uint64(n) * 1500,
			}
		}
		if err := w.WriteWindow(idx, uint32(7+idx), samples); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "recorded.golden", mbdump(t, "-in", dir, "-samples", "2"))

	if out := mbdump(t, "-in", "../mbanalyze/testdata/trace", "-quiet"); !bytes.Contains(out, []byte("total: 2 batches, 1580 samples")) {
		t.Errorf("legacy window dir totals wrong:\n%s", out)
	}
}

// TestParentWrittenFleetDirDumps: testdata/fleet_parent is a fleet
// directory written by mbfleet at 42dc5e6 (-racks 6 -shards 2 -window 1ms
// -warmup 200us -faults kill@500us), fleet.json and fleet_checkpoint.json
// included, and fleet_parent.golden is that commit's `mbdump -samples 3`
// of it, racks ascending. Neither is ever regenerated: they are the pin.
// Read in storage order, the directory dumps to
// fleet_parent_streamed.golden exactly, and to the parent's dump up to
// the order of its batch lines: the same header, totals and per-series
// lines, and the same batch lines once their numbers and the sample lines
// are stripped. It reads the same from campaign.json alone, is left
// untouched, and the two legacy files are never opened — garbage in them
// changes nothing.
func TestParentWrittenFleetDirDumps(t *testing.T) {
	const fixture = "testdata/fleet_parent"
	parent, err := os.ReadFile("testdata/fleet_parent.golden")
	if err != nil {
		t.Fatal(err)
	}
	before := hashTree(t, fixture)
	if len(before) != 10 {
		t.Fatalf("fixture holds %d files, want the parent's 10: %v", len(before), before)
	}
	got := mbdump(t, "-in", fixture, "-samples", "3")
	checkGolden(t, "fleet_parent_streamed.golden", got)
	gotBatches, gotRest := dumpShape(got)
	wantBatches, wantRest := dumpShape(parent)
	if !reflect.DeepEqual(gotRest, wantRest) {
		t.Errorf("header, totals or series lines differ from the parent's:\n got %q\nwant %q", gotRest, wantRest)
	}
	if !reflect.DeepEqual(gotBatches, wantBatches) {
		t.Errorf("batch lines are not a permutation of the parent's:\n got %q\nwant %q", gotBatches, wantBatches)
	}
	if after := hashTree(t, fixture); !reflect.DeepEqual(after, before) {
		t.Errorf("reading modified the fixture:\nbefore %v\nafter  %v", before, after)
	}

	// A copy whose two legacy files hold garbage.
	dir := copyTree(t, fixture, func(name string, data []byte) []byte {
		if name == "fleet.json" || name == "fleet_checkpoint.json" {
			return []byte("{not json")
		}
		return data
	})
	if out := mbdump(t, "-in", dir, "-samples", "3"); !bytes.Equal(out, got) {
		t.Errorf("garbage in the legacy files changed the dump:\n%s", out)
	}
}

// dumpShape splits a dump into its batch lines with their numbers cut
// off, sorted, and every other line in order, sample lines dropped: what
// two dumps of one directory in different batch orders share.
func dumpShape(dump []byte) (batches, rest []string) {
	for _, line := range strings.Split(string(dump), "\n") {
		switch {
		case strings.HasPrefix(line, "  sample "):
		case strings.HasPrefix(line, "batch "):
			_, tail, _ := strings.Cut(line, ": ")
			batches = append(batches, tail)
		default:
			rest = append(rest, line)
		}
	}
	sort.Strings(batches)
	return batches, rest
}

// TestMixedFormatStoreResumes: a store an older build left in MBW2 keeps
// working across the switch to one written format. A copy of the parent's
// fleet directory has its shard 0 resumed — archive and checkpoint — and
// fed three more batches: the old MBW2 segments stay as they are, the new
// segment is MBW3, one IterArchive reads both in order, and the dump
// totals are the parent's golden plus the three.
func TestMixedFormatStoreResumes(t *testing.T) {
	const fixture = "testdata/fleet_parent"
	dir := copyTree(t, fixture, nil)
	meta, ok, err := trace.FleetMeta(dir)
	if err != nil || !ok {
		t.Fatalf("fleet meta: ok=%v err=%v", ok, err)
	}
	shardDir := filepath.Join(dir, meta.Placement.Name(0))
	var parent []wire.Batch
	keep := func(into *[]wire.Batch) func(*wire.Batch) error {
		return func(b *wire.Batch) error { // the reader reuses b
			*into = append(*into, wire.Batch{Rack: b.Rack, Epoch: b.Epoch, Samples: append([]wire.Sample(nil), b.Samples...)})
			return nil
		}
	}
	if err := trace.IterArchive(shardDir, keep(&parent)); err != nil {
		t.Fatal(err)
	}

	arch, _, err := trace.ResumeArchive(shardDir, trace.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := collector.NewShard(collector.ShardConfig{
		ID: 0, Placement: meta.Placement, Stats: &collector.IngestStats{},
		Archive: arch, CheckpointPath: filepath.Join(shardDir, collector.CheckpointFileName),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sh.Resume(func(fn func(*wire.Batch) error) error { return trace.IterArchive(shardDir, fn) })
	if err != nil || !rep.HadCheckpoint || rep.ArchiveBatches != uint64(len(parent)) {
		t.Fatalf("resume: %+v, %v; want the parent's checkpoint over its %d batches", rep, err, len(parent))
	}
	rack := parent[0].Rack // a rack the placement gives this shard
	var added []wire.Batch
	for i := 0; i < 3; i++ {
		b := wire.Batch{Rack: rack, Epoch: 1, Samples: []wire.Sample{{
			Time: simclock.Epoch.Add(simclock.Millis(int64(2 + i))),
			Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: uint64(1+i) << 20,
		}}}
		sh.Handle(&b)
		added = append(added, b)
	}
	if err := sh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	var got []wire.Batch
	if err := trace.IterArchive(shardDir, keep(&got)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, append(parent, added...)) {
		t.Errorf("resumed store reads %d batches, want the parent's %d then the 3 added, in order", len(got), len(parent))
	}
	for name, magic := range map[string]string{"seg_000001.mbw": "MBW2", "seg_000003.mbw": "MBW3"} {
		seg, err := os.ReadFile(filepath.Join(shardDir, name))
		if err != nil || !bytes.HasPrefix(seg, []byte(magic)) {
			t.Errorf("%s opens with %q (%v), want %s", name, seg[:min(4, len(seg))], err, magic)
		}
	}
	if out := mbdump(t, "-in", dir, "-quiet"); !bytes.Contains(out, []byte("total: 9 batches, 237 samples")) { // the golden's 6 and 234, plus 3
		t.Errorf("mixed-format fleet totals wrong:\n%s", out)
	}
}

// TestParentShardResumesWithoutReplay: the parent's shard 0 store —
// checkpoint mark 3, at the end of its second MBW2 segment — resumes to
// exactly its checkpoint with nothing replayed, and without opening the
// second segment: garbage in its place changes nothing.
func TestParentShardResumesWithoutReplay(t *testing.T) {
	dir := copyTree(t, "testdata/fleet_parent", nil)
	meta, ok, err := trace.FleetMeta(dir)
	if err != nil || !ok {
		t.Fatalf("fleet meta: ok=%v err=%v", ok, err)
	}
	shardDir := filepath.Join(dir, meta.Placement.Name(0))
	ckpt := filepath.Join(shardDir, collector.CheckpointFileName)
	want, ok, err := collector.LoadCheckpoint(ckpt)
	if err != nil || !ok {
		t.Fatalf("parent checkpoint: ok=%v err=%v", ok, err)
	}
	arch, _, err := trace.ResumeArchive(shardDir, trace.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	seg2 := filepath.Join(shardDir, "seg_000002.mbw")
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg2, bytes.Repeat([]byte{0xa5}, len(data)), 0o644); err != nil {
		t.Fatal(err)
	}
	figs, err := collector.NewLiveFigures(collector.LiveFiguresConfig{
		SpeedOf: func(uint32, uint16) uint64 { return 10_000_000_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := collector.NewShard(collector.ShardConfig{
		ID: 0, Placement: meta.Placement, Figures: figs, Stats: &collector.IngestStats{},
		Archive: arch, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sh.Resume(func(fn func(*wire.Batch) error) error { return trace.IterArchive(shardDir, fn) })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HadCheckpoint || rep.CheckpointBatches != 3 || rep.ArchiveBatches != 3 || rep.Replayed != 0 {
		t.Errorf("resume %+v, want the parent's checkpoint over its 3 batches and nothing replayed", rep)
	}
	if err := sh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := collector.LoadCheckpoint(ckpt)
	if err != nil || !ok {
		t.Fatalf("resumed checkpoint: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed state differs from the parent's checkpoint:\n got %+v\nwant %+v", got, want)
	}
}

// copyTree copies every file under root into a fresh temp directory,
// through edit (by base name) when it is non-nil, and returns the copy.
func copyTree(t *testing.T, root string, edit func(name string, data []byte) []byte) string {
	t.Helper()
	dir := t.TempDir()
	for path := range hashTree(t, root) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			data = edit(filepath.Base(path), data)
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, root))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// hashTree fingerprints every file under root by relative path.
func hashTree(t *testing.T, root string) map[string][sha256.Size]byte {
	t.Helper()
	out := make(map[string][sha256.Size]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = sha256.Sum256(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFleetDumpQuietTotals sanity-checks the quiet path over the same
// directory: only the totals block, correct sums.
func TestFleetDumpQuietTotals(t *testing.T) {
	dir := goldenFleetDir(t)
	out := string(mbdump(t, "-in", dir, "-quiet"))
	if !strings.Contains(out, "total: 12 batches, 24 samples") {
		t.Errorf("quiet totals wrong:\n%s", out)
	}
	if strings.Contains(out, "batch ") || strings.Contains(out, "fleet:") {
		t.Errorf("quiet dump leaked per-batch or header lines:\n%s", out)
	}
}

// TestFleetDumpPlacementViolation corrupts the routing — a batch landed
// in the wrong shard's archive — and expects the merged read to refuse.
func TestFleetDumpPlacementViolation(t *testing.T) {
	dir := goldenFleetDir(t)
	meta, ok, err := trace.FleetMeta(dir)
	if err != nil || !ok {
		t.Fatalf("fleet meta: ok=%v err=%v", ok, err)
	}
	// Find a rack and a shard that does NOT own it, and plant a batch.
	var victim uint32
	var wrong int
	for r := uint32(0); r < uint32(meta.Windows); r++ {
		if s := meta.Placement.ShardOf(r); s != 0 {
			victim, wrong = r, 0
			break
		}
	}
	w, _, err := trace.ResumeArchive(filepath.Join(dir, meta.Placement.Name(wrong)), trace.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(&wire.Batch{Rack: victim, Epoch: 1, Samples: []wire.Sample{
		{Time: simclock.Epoch, Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Value: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mbdumpFails(t, "-in", dir, "-quiet"); !strings.Contains(err, "placement violation") {
		t.Fatalf("misrouted batch not rejected: %v", err)
	}
}

// TestFleetDumpEscapingShardDir: campaign.json is read from disk, and a
// placement shard name that points out of the fleet directory — relatively or
// absolutely, at a perfectly good archive — is refused, not followed.
func TestFleetDumpEscapingShardDir(t *testing.T) {
	for _, absolute := range []bool{false, true} {
		dir := goldenFleetDir(t)
		outside := filepath.Join(t.TempDir(), "arch")
		if err := os.Rename(filepath.Join(dir, "shard_000"), outside); err != nil {
			t.Fatal(err)
		}
		escape := outside
		if !absolute {
			rel, err := filepath.Rel(dir, outside)
			if err != nil {
				t.Fatal(err)
			}
			escape = rel
		}
		path := filepath.Join(dir, trace.MetaFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.Replace(data, []byte(`"shard_000"`), []byte(`"`+escape+`"`), 1)
		if bytes.Equal(edited, data) {
			t.Fatal("campaign.json holds no shard_000 name to edit")
		}
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := mbdumpFails(t, "-in", dir, "-quiet"); !strings.Contains(err, "not inside the fleet directory") {
			t.Errorf("shard dir %q not rejected: %v", escape, err)
		}
	}
}

// TestCheckpointDumpGolden: -checkpoint prints the same indented JSON
// for the b3e8392 JSON checkpoint fixture and its MBC1 twin — byte for
// byte the file that indenting build wrote, which is therefore the
// golden — and tells the two apart only in the summary line.
func TestCheckpointDumpGolden(t *testing.T) {
	const fixtures = "../../internal/collector/testdata"
	want, err := os.ReadFile(filepath.Join(fixtures, "checkpoint_parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	for fixture, summary := range map[string]string{
		"checkpoint_parent.json": "checkpoint: encoding json, 9180 bytes, 4 series, 4 racks, archived_batches 48\n",
		"checkpoint_v1.mbc":      "checkpoint: encoding MBC1, 1315 bytes, 4 series, 4 racks, archived_batches 48\n",
	} {
		var out, head bytes.Buffer
		if err := dumpCheckpoint(&out, &head, filepath.Join(fixtures, fixture)); err != nil {
			t.Fatal(err)
		}
		if head.String() != summary {
			t.Errorf("%s: summary %q, want %q", fixture, head.String(), summary)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: dump diverges from checkpoint_parent.json:\n--- got ---\n%s\n--- want ---\n%s", fixture, out.Bytes(), want)
		}
	}
	if err := dumpCheckpoint(&bytes.Buffer{}, &bytes.Buffer{}, filepath.Join(t.TempDir(), "none.mbc")); err == nil {
		t.Error("a missing checkpoint dumped")
	}
}
