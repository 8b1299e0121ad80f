package trace

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mburst/internal/shard"
	"mburst/internal/wire"
)

// hashFiles fingerprints every file in dir by name and content.
func hashFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range dirNames(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	return out
}

// legacyFixture is a window dir written by the commit before recordings
// became archives (campaign.json + manifest.json + window_%04d.mbw). It is
// mbanalyze's golden input and is never regenerated.
const legacyFixture = "../../cmd/mbanalyze/testdata/trace"

func copyLegacyFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range dirNames(t, legacyFixture) {
		data, err := os.ReadFile(filepath.Join(legacyFixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLegacyWindowDirStaysReadable: every reader takes a parent-written
// window dir — Open, HasWindow, IterWindow, and IterArchive in window
// order — and none of them writes into it.
func TestLegacyWindowDirStaysReadable(t *testing.T) {
	dir := copyLegacyFixture(t)
	before := hashFiles(t, dir)
	if _, ok := before["window_0000.mbw"]; !ok || before[ArchiveManifestName] != "" {
		t.Fatalf("fixture is not a legacy window dir: %v", before)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var perWindow []wire.Batch
	for idx := 0; idx < r.Meta().Windows; idx++ {
		if !r.HasWindow(idx) {
			t.Fatalf("window %d missing", idx)
		}
		n := len(perWindow)
		if err := r.IterWindow(idx, appendBatch(&perWindow)); err != nil {
			t.Fatalf("window %d: %v", idx, err)
		}
		if len(perWindow) == n {
			t.Fatalf("window %d decoded no batch", idx)
		}
	}
	if got := collectArchive(t, dir); !reflect.DeepEqual(got, perWindow) {
		t.Errorf("IterArchive over a legacy dir yields %d batches, not the %d of IterWindow(0..n) in order", len(got), len(perWindow))
	}
	if after := hashFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("reading modified the legacy directory:\n%v\n%v", before, after)
	}
	// A campaign.json beside no window at all is not an archive.
	os.Remove(filepath.Join(dir, "window_0000.mbw"))
	os.Remove(filepath.Join(dir, "window_0001.mbw"))
	if err := IterArchive(dir, func(*wire.Batch) error { return nil }); err == nil {
		t.Error("IterArchive read a directory holding neither manifest nor windows")
	}
}

func appendBatch(dst *[]wire.Batch) func(*wire.Batch) error {
	return func(b *wire.Batch) error {
		*dst = append(*dst, wire.Batch{Rack: b.Rack, Epoch: b.Epoch, Samples: append([]wire.Sample(nil), b.Samples...)})
		return nil
	}
}

// TestWriteOrderIsInvisible is the property that lets a parallel runner
// record: whatever order windows are written in, the directory is the
// same bytes, and IterArchive yields IterWindow(0), IterWindow(1), ...
func TestWriteOrderIsInvisible(t *testing.T) {
	const windows = 5
	meta := validMeta()
	meta.Windows = windows
	meta.Format = "mbw3"
	sizes := []int{0, 3, BatchSize, BatchSize + 1, 40}
	record := func(order []int) (map[string]string, string) {
		dir := filepath.Join(t.TempDir(), "c")
		w, err := Create(dir, meta, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range order {
			if err := w.WriteWindow(idx, uint32(idx), mkSamples(sizes[idx])); err != nil {
				t.Fatal(err)
			}
		}
		return hashFiles(t, dir), dir
	}
	want, _ := record([]int{0, 1, 2, 3, 4})
	if len(want) != windows+2 {
		t.Fatalf("recording holds %d files, want %d segments + 2 JSON files", len(want), windows)
	}
	prop := func(seed int64) bool {
		got, dir := record(rand.New(rand.NewSource(seed)).Perm(windows))
		if !reflect.DeepEqual(got, want) {
			t.Logf("order-dependent directory:\n%v\n%v", got, want)
			return false
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var perWindow []wire.Batch
		for idx := 0; idx < windows; idx++ {
			if err := r.IterWindow(idx, appendBatch(&perWindow)); err != nil {
				t.Fatal(err)
			}
		}
		return reflect.DeepEqual(collectArchive(t, dir), perWindow)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDiscardRemovesUnlistedSegment: Discard goes by file name, not by the
// writer's bookkeeping. A window whose seal got as far as the rename —
// sealed name on disk, manifest write failed — is in no list of windows
// written, and must still go: a campaign directory holds a complete
// campaign or nothing.
func TestDiscardRemovesUnlistedSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	w := writeCampaign(t, dir, 5)
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{segName(2), segName(3) + TempSuffix, ArchiveManifestName + TempSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("discarded campaign directory survives holding %v", dirNames(t, dir))
	}
}

// TestDiscardMidWindow: a write error inside a window leaves no file and
// no latch — the window can be retried — and Discard with a window in
// flight removes it.
func TestDiscardMidWindow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	var failing bool
	open := func(path string) (io.WriteCloser, error) {
		f, err := os.Create(path)
		if failing {
			return failWrites{f}, err
		}
		return f, err
	}
	w, err := Create(dir, validMeta(), open)
	if err != nil {
		t.Fatal(err)
	}
	failing = true
	if err := w.WriteWindow(0, 1, mkSamples(10)); err == nil {
		t.Fatal("injected write error not surfaced")
	}
	if got, want := dirNames(t, dir), []string{ArchiveManifestName, MetaFileName}; !reflect.DeepEqual(got, want) {
		t.Fatalf("failed window left %v, want %v", got, want)
	}
	failing = false
	if err := w.WriteWindow(0, 1, mkSamples(10)); err != nil {
		t.Fatalf("retry after a write error: %v", err)
	}
	if err := w.arch.openSegment(2, segName(2)+TempSuffix); err != nil {
		t.Fatal(err)
	}
	if err := w.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("discarded campaign directory survives holding %v", dirNames(t, dir))
	}
}

// failWrites fails every write to an opened segment.
type failWrites struct{ io.WriteCloser }

func (failWrites) Write([]byte) (int, error) { return 0, errors.New("injected write error") }

// TestFleetManifestRejectsEscapingDirs: campaign.json comes from disk and
// each placement shard name is joined to the fleet directory, so a name
// may only be something inside it.
func TestFleetManifestRejectsEscapingDirs(t *testing.T) {
	abs, err := filepath.Abs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"shard_000", true},
		{"shards/000", true},
		{"", false},
		{"..", false},
		{"../elsewhere", false},
		{"shard_000/../../elsewhere", false},
		{abs, false},
	} {
		// A hand-written campaign.json is where such a name would come
		// from, so plant it past the writer.
		meta := validMeta()
		meta.Placement = &shard.Placement{Version: 1, Seed: 7, Shards: []string{tc.name}}
		dir := t.TempDir()
		if err := writeJSON(filepath.Join(dir, MetaFileName), &meta); err != nil {
			t.Fatal(err)
		}
		got, ok, err := FleetMeta(dir)
		if (err == nil) != tc.ok || ok != tc.ok {
			t.Errorf("name %q: FleetMeta ok=%v err=%v, want ok=%v", tc.name, ok, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "shard 0") {
			t.Errorf("name %q: error %q does not name the shard", tc.name, err)
		}
		if tc.ok && !reflect.DeepEqual(got, meta) {
			t.Errorf("name %q: FleetMeta = %+v, want %+v", tc.name, got, meta)
		}
		// A fleet is not a campaign of windows: the window reader says so.
		if _, err := Open(dir); tc.ok && (err == nil || !strings.Contains(err.Error(), "fleet campaign")) {
			t.Errorf("name %q: Open = %v, want a refusal naming the fleet campaign", tc.name, err)
		}
		// IterFleet resolves shards through the same check, before it
		// opens anything.
		if err := IterFleet(dir, func(*wire.Batch) error { return nil }); !tc.ok && (err == nil || !strings.Contains(err.Error(), "shard 0")) {
			t.Errorf("name %q: IterFleet = %v, want the same refusal", tc.name, err)
		}
	}
	// Not a fleet: no campaign.json, and a plain recording's.
	dir := t.TempDir()
	if _, ok, err := FleetMeta(dir); ok || err != nil {
		t.Errorf("empty dir: FleetMeta ok=%v err=%v, want false, nil", ok, err)
	}
	plain := validMeta()
	if err := writeJSON(filepath.Join(dir, MetaFileName), &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := FleetMeta(dir); ok || err != nil {
		t.Errorf("plain recording: FleetMeta ok=%v err=%v, want false, nil", ok, err)
	}
}

// TestFleetMetaRejectsAliasedShardDirs: two shard names that spell one
// directory would make IterFleet read one store twice, so a shard name
// must be its own filepath.Clean form and not the fleet directory itself.
// Both the reader and the writer hold to it.
func TestFleetMetaRejectsAliasedShardDirs(t *testing.T) {
	for _, tc := range []struct {
		shards []string
		bad    int // index of the shard refused, or -1
	}{
		{[]string{"shard_000", "shard_001"}, -1},
		{[]string{"shards/000", "shards/001"}, -1},
		{[]string{"shard_000", "./shard_000"}, 1},
		{[]string{"shard_000/"}, 0},
		{[]string{"a/../shard_000"}, 0},
		{[]string{"shard_000", "shard_000//"}, 1},
		{[]string{"."}, 0},
		{[]string{"shard_000", "."}, 1},
	} {
		meta := validMeta()
		meta.Placement = &shard.Placement{Version: 1, Seed: 7, Shards: tc.shards}
		want := fmt.Sprintf("shard %d", tc.bad)
		dir := t.TempDir()
		if err := writeJSON(filepath.Join(dir, MetaFileName), &meta); err != nil {
			t.Fatal(err)
		}
		_, ok, err := FleetMeta(dir)
		if ok != (tc.bad < 0) || tc.bad >= 0 && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("%q: FleetMeta ok=%v err=%v, want shard %d refused (-1: none)", tc.shards, ok, err, tc.bad)
		}
		err = WriteFleetMeta(t.TempDir(), meta)
		if (err == nil) != (tc.bad < 0) || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("%q: WriteFleetMeta = %v, want the same verdict as FleetMeta", tc.shards, err)
		}
	}
}

// TestIterFleetCallbackErrorStopsAtShardBoundary: an error fn returns on
// the first batch of a later shard — past an empty shard between them —
// ends the iteration there and comes back unwrapped, after every batch
// of shard 0 and no other.
func TestIterFleetCallbackErrorStopsAtShardBoundary(t *testing.T) {
	pl, err := shard.Uniform(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	f := newFleetWriter(t, pl)
	for k := 0; k < 3; k++ { // batch rounds outer, racks inner, as a live fan-in admits
		for r := uint32(0); r < 8; r++ {
			if s := pl.ShardOf(r); s != 1 {
				f.write(s, fleetBatch(rng, r, k, 2))
			}
		}
	}
	dir := f.close()
	var first []wire.Batch
	if err := IterArchive(filepath.Join(dir, pl.Name(0)), appendBatch(&first)); err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("shard 0 owns none of the racks written")
	}
	stop := errors.New("stop")
	calls := 0
	err = IterFleet(dir, func(b *wire.Batch) error {
		calls++
		if calls == len(first)+1 {
			if s := pl.ShardOf(b.Rack); s != 2 {
				t.Errorf("batch %d is rack %d of shard %d, want shard 2's first", calls, b.Rack, s)
			}
			return stop
		}
		return nil
	})
	if err != stop || calls != len(first)+1 {
		t.Errorf("IterFleet = %v after %d calls, want the callback's own error after %d (shard 0's %d batches + 1)",
			err, calls, len(first)+1, len(first))
	}
}
