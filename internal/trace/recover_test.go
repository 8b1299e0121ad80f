package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mburst/internal/wire"
)

// The recovery behaviours a recorded campaign had under its own scan,
// held to RecoverArchive — the one scan — on a recorded directory.

func writeCampaign(t *testing.T, dir string, windows ...int) *Writer {
	t.Helper()
	w, err := Create(dir, validMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range windows {
		if err := w.WriteWindow(i, 1, mkSamples(n)); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// dirNames lists dir's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestWindowManifestSeals(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, 10, 20)
	if got, want := dirNames(t, dir), []string{ArchiveManifestName, MetaFileName, segName(1), segName(2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a recording holds %v, want exactly %v", got, want)
	}
	man, err := loadArchiveManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 2 {
		t.Fatalf("manifest holds %d segments, want 2", len(man.Segments))
	}
	for i, info := range man.Segments {
		if info.Seq != i+1 || info.Batches != 1 || info.Samples != uint64(10*(i+1)) || info.Bytes <= 0 {
			t.Errorf("window %d manifest entry %+v", i, info)
		}
		fi, err := os.Stat(filepath.Join(dir, segName(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != info.Bytes {
			t.Errorf("window %d: manifest says %d B, file is %d B", i, info.Bytes, fi.Size())
		}
	}
	// A clean campaign recovers trivially: both windows trusted at their
	// recorded size, no scans.
	rep, err := RecoverArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SealedSegments != 2 || len(rep.Scanned) != 0 || len(rep.RemovedTemps) != 0 || rep.Samples != 30 {
		t.Errorf("clean recovery report %+v", rep)
	}
}

func TestRecoverTruncatesTornWindow(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, 100)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAll(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the sealed window with a torn tail, as if a crash had
	// appended half a frame. The size no longer matches the manifest, so
	// recovery rescans and truncates back to the decodable prefix.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Close()
	if _, err := readAll(r, 0); err == nil {
		t.Fatal("torn window read without error before recovery")
	}
	rep, err := RecoverArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scanned) != 1 || !rep.Scanned[0].Torn || rep.Scanned[0].TruncatedBytes != 7 {
		t.Fatalf("recovery report %+v, want one torn window with 7 truncated bytes", rep)
	}
	if rep.Scanned[0].Samples != 100 {
		t.Errorf("recovered %d samples, want 100", rep.Scanned[0].Samples)
	}
	got, err := readAll(r, 0)
	if err != nil {
		t.Fatalf("window unreadable after recovery: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d samples, want %d", len(got), len(want))
	}
	// Second recovery is a no-op: the repaired state was recorded.
	rep2, err := RecoverArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Scanned) != 0 || rep2.SealedSegments != 1 {
		t.Errorf("second recovery rescanned: %+v", rep2)
	}
}

// TestRecoverRemovesTemps: a window in flight at the crash is a TempSuffix
// file, and recovery deletes it — a window is whole or absent, so unlike a
// collector's .open segment its decodable prefix is not sealed.
func TestRecoverRemovesTemps(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, 5)
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Decodable bytes on purpose: a scan that sealed prefixes would keep it.
	tmp := filepath.Join(dir, segName(2)+TempSuffix)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RecoverArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedTemps) != 1 || rep.SealedSegments != 1 || len(rep.Scanned) != 0 {
		t.Fatalf("recovery report %+v, want one temp removed and window 0 trusted", rep)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("temp file survived recovery")
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasWindow(0) || r.HasWindow(1) {
		t.Error("recovery sealed the in-flight window, or lost the sealed one")
	}
}

// TestRecoverSealsUnlistedWindow: a crash between a window's rename and
// the manifest write leaves a whole segment the manifest does not list;
// recovery scans it and lists it.
func TestRecoverSealsUnlistedWindow(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, 5, 7)
	if err := saveArchiveManifest(dir, ArchiveManifest{}); err != nil {
		t.Fatal(err)
	}
	rep, err := RecoverArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scanned) != 2 || rep.Scanned[0].Torn || rep.Scanned[1].Samples != 7 || rep.Samples != 12 {
		t.Fatalf("recovery report %+v, want two clean scanned windows", rep)
	}
	if n := len(collectArchive(t, dir)); n != 2 {
		t.Errorf("IterArchive yields %d batches after recovery, want 2", n)
	}
}

// TestRecoverRefusesNonCampaign: recovery writes, so it takes only a
// directory that holds an archive manifest — not an empty one, and not a
// legacy window dir, which is read-only.
func TestRecoverRefusesNonCampaign(t *testing.T) {
	if _, err := RecoverArchive(t.TempDir()); err == nil {
		t.Fatal("RecoverArchive accepted a directory with no archive")
	}
	dir := copyLegacyFixture(t)
	before := hashFiles(t, dir)
	if _, err := RecoverArchive(dir); err == nil {
		t.Fatal("RecoverArchive accepted a legacy window dir")
	}
	if after := hashFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("refused recovery modified the directory:\n%v\n%v", before, after)
	}
}

func TestScanStreamEveryTruncation(t *testing.T) {
	// Build one valid window's bytes, then scan every prefix length:
	// the scan must never panic, never report more than the full stream,
	// and report exactly the full stream when uncut.
	dir := t.TempDir()
	writeCampaign(t, dir, 64)
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	full := scanStream(bytes.NewReader(data))
	if full.Torn || full.Samples != 64 || full.GoodBytes != int64(len(data)) {
		t.Fatalf("full scan %+v", full)
	}
	for cut := 0; cut <= len(data); cut++ {
		res := scanStream(bytes.NewReader(data[:cut]))
		if res.GoodBytes > int64(cut) || res.Samples > full.Samples {
			t.Fatalf("cut %d: scan claims %+v", cut, res)
		}
		if cut == len(data) && res.Torn {
			t.Fatalf("uncut stream reported torn: %+v", res)
		}
		if cut < len(data) && cut > int(res.GoodBytes) && !res.Torn {
			t.Fatalf("cut %d: torn tail not reported: %+v", cut, res)
		}
	}
}

// shortOnce persists half of one armed write while reporting all of it
// written: a storage layer that lies about durability.
type shortOnce struct {
	*os.File
	armed bool
}

func (s *shortOnce) Write(p []byte) (int, error) {
	if !s.armed {
		return s.File.Write(p)
	}
	s.armed = false
	if _, err := s.File.Write(p[:len(p)/2]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestRecoverKeepsDecodablePrefix: a short write lands in segment 2, a
// checkpoint's Sync seals it, segment 3 takes two more batches, and the
// process dies. Segment 2 rescans torn — its manifest entry counts the
// bytes the writer believed it wrote — so the log ends at segment 2's
// good prefix and segment 3 goes: a resume replays the log by position,
// and past the hole every position would name another batch.
func TestRecoverKeepsDecodablePrefix(t *testing.T) {
	dir := t.TempDir()
	lie := &shortOnce{}
	w, err := CreateArchive(dir, ArchiveConfig{
		Open: func(path string) (io.WriteCloser, error) {
			f, err := os.Create(path)
			lie.File = f
			return lie, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []wire.Batch
	write := func(i int) {
		b := archiveBatch(i, 6)
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, *b)
	}
	sync := func() {
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	write(1)
	sync() // segment 1: batches 0-1
	write(2)
	lie.armed = true
	write(3)
	write(4)
	sync() // segment 2: batch 2, half of 3, then 4
	write(5)
	write(6) // segment 3, open at the kill

	rep, err := RecoverArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 3 || rep.SealedSegments != 1 || len(rep.Scanned) != 1 || !rep.Scanned[0].Torn {
		t.Errorf("recovery report %+v, want segment 1 trusted and segment 2 torn, 3 batches kept", rep)
	}
	if !reflect.DeepEqual(rep.RemovedSegments, []string{segOpenName(3)}) {
		t.Errorf("recovery removed %v, want the segment after the torn one", rep.RemovedSegments)
	}
	if got, want := dirNames(t, dir), []string{ArchiveManifestName, segName(1), segName(2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("recovered log holds %v, want %v", got, want)
	}
	man, err := loadArchiveManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 2 || man.Segments[0].Batches != 2 || man.Segments[1].Batches != 1 {
		t.Errorf("manifest %+v, want segment 1 whole and segment 2 at its one good batch", man.Segments)
	}
	if got := collectArchive(t, dir); !reflect.DeepEqual(got, want[:3]) {
		t.Errorf("recovered log replays %d batches, want the first 3 written", len(got))
	}
	rep2, err := RecoverArchive(dir)
	if err != nil || rep2.SealedSegments != 2 || len(rep2.Scanned) != 0 || len(rep2.RemovedSegments) != 0 {
		t.Errorf("second recovery %+v, %v: want both segments trusted, nothing scanned or removed", rep2, err)
	}
}

// TestRecoverKeepsWindowsAfterATornOne: a recording's windows are
// independent, so a damaged window costs only itself.
func TestRecoverKeepsWindowsAfterATornOne(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, 10, 20, 30)
	path := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RecoverArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedSegments) != 0 || rep.SealedSegments != 2 || len(rep.Scanned) != 1 || !rep.Scanned[0].Torn {
		t.Errorf("recovery report %+v, want window 1 torn and windows 0 and 2 kept", rep)
	}
}
