package trace

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mburst/internal/wire"
)

func archiveBatch(i, n int) *wire.Batch {
	s := mkSamples(n)
	for j := range s {
		s[j].Value += uint64(i * 1000)
	}
	return &wire.Batch{Rack: uint32(1 + i%2), Epoch: 1, Samples: s}
}

func collectArchive(t *testing.T, dir string) []wire.Batch {
	t.Helper()
	var got []wire.Batch
	if err := IterArchive(dir, appendBatch(&got)); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestArchiveRoundTrip(t *testing.T) {
	// The config's leftover Format field selects nothing: zero and mbw3 are
	// the same archive, and the read-only formats are refused.
	for _, format := range []wire.Format{wire.FormatMBW1, wire.FormatMBW2, wire.Format(42)} {
		if _, err := CreateArchive(filepath.Join(t.TempDir(), "a"), ArchiveConfig{Format: format}); err == nil {
			t.Errorf("CreateArchive accepted format %v", format)
		}
	}
	for _, format := range []wire.Format{0, wire.FormatMBW3} {
		dir := filepath.Join(t.TempDir(), "a")
		w, err := CreateArchive(dir, ArchiveConfig{Format: format, SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want []wire.Batch
		for i := 0; i < 7; i++ {
			b := archiveBatch(i, 5)
			want = append(want, *b)
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
			if i%2 == 1 {
				if err := w.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := w.Batches(); got != 7 {
			t.Errorf("%v: Batches = %d, want 7", format, got)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		man, err := loadArchiveManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Segments) != 4 || man.Format != "mbw3" { // 2+2+2+1: a Sync every 2 batches
			t.Errorf("%v: %d segments in format %q, want 4 in mbw3", format, len(man.Segments), man.Format)
		}
		got := collectArchive(t, dir)
		if len(got) != len(want) {
			t.Fatalf("%v: replayed %d batches, want %d", format, len(got), len(want))
		}
		for i := range want {
			if got[i].Rack != want[i].Rack || got[i].Epoch != want[i].Epoch || !reflect.DeepEqual(got[i].Samples, want[i].Samples) {
				t.Fatalf("%v: batch %d mismatch", format, i)
			}
		}
	}
}

// TestArchiveSegmentsEndOnlyAtSync: a segment ends at Sync (a
// checkpoint) or Close and nowhere else, however many batches it holds.
func TestArchiveSegmentsEndOnlyAtSync(t *testing.T) {
	for _, c := range []struct{ batches, syncEvery, want int }{
		{5000, 0, 1},
		{10, 3, 4},
		{9, 3, 3},
		{7, 1, 7},
		{4, 10, 1},
	} {
		dir := filepath.Join(t.TempDir(), "a")
		w, err := CreateArchive(dir, ArchiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= c.batches; i++ {
			if err := w.WriteBatch(archiveBatch(i, 1)); err != nil {
				t.Fatal(err)
			}
			if c.syncEvery > 0 && i%c.syncEvery == 0 {
				if err := w.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		man, err := loadArchiveManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(man.Segments) != c.want {
			t.Errorf("%d batches, Sync every %d: %d segments, want %d", c.batches, c.syncEvery, len(man.Segments), c.want)
		}
		var n uint64
		for _, seg := range man.Segments {
			n += seg.Batches
		}
		if n != uint64(c.batches) {
			t.Errorf("%d batches, Sync every %d: segments hold %d", c.batches, c.syncEvery, n)
		}
	}
}

func TestArchiveRefusesReuse(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateArchive(dir, ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := CreateArchive(dir, ArchiveConfig{}); err == nil {
		t.Fatal("CreateArchive reused a directory holding an archive")
	}
}

func TestArchiveResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateArchive(dir, ArchiveConfig{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []wire.Batch
	for i := 0; i < 5; i++ {
		b := archiveBatch(i, 8)
		want = append(want, *b)
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: the writer is abandoned without Close, and the open segment
	// gains a torn half-frame, as if the process died mid-write.
	f, err := os.OpenFile(filepath.Join(dir, segOpenName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x4d, 0x42, 0x01, 0x02, 0x03})
	f.Close()

	w2, rec, err := ResumeArchive(dir, ArchiveConfig{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Batches != 5 {
		t.Fatalf("recovery found %d batches, want 5: %+v", rec.Batches, rec)
	}
	if len(rec.Scanned) != 1 || !rec.Scanned[0].Torn || rec.Scanned[0].TruncatedBytes != 5 {
		t.Fatalf("recovery scan %+v, want one torn segment with 5 truncated bytes", rec)
	}
	if w2.Batches() != 5 {
		t.Errorf("resumed writer primed at %d batches, want 5", w2.Batches())
	}
	for i := 5; i < 9; i++ {
		b := archiveBatch(i, 8)
		want = append(want, *b)
		if err := w2.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got := collectArchive(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Samples, want[i].Samples) {
			t.Fatalf("batch %d samples mismatch after crash/resume", i)
		}
	}
}

// failAfter fails every write once armed.
type failAfter struct {
	*os.File
	fail bool
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.fail {
		return 0, errors.New("injected archive write error")
	}
	return f.File.Write(p)
}

func TestArchiveWriteErrorLatches(t *testing.T) {
	dir := t.TempDir()
	var chaos *failAfter
	w, err := CreateArchive(dir, ArchiveConfig{
		Open: func(path string) (io.WriteCloser, error) {
			f, err := os.Create(path)
			chaos = &failAfter{File: f}
			return chaos, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(archiveBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	chaos.fail = true
	if err := w.WriteBatch(archiveBatch(1, 4)); err == nil {
		t.Fatal("write through failing sink succeeded")
	}
	chaos.fail = false
	// The writer stays failed: its segment may hold a torn frame, so more
	// writes would corrupt the log even though the disk "recovered".
	if err := w.WriteBatch(archiveBatch(2, 4)); err == nil {
		t.Fatal("failed writer accepted another batch")
	}
	if err := w.Close(); err == nil {
		t.Fatal("failed writer closed cleanly")
	}
}

// failingSyncFile wraps a real file but refuses fsync.
type failingSyncFile struct{ *os.File }

func (f failingSyncFile) Sync() error { return errors.New("injected sync error") }

func TestArchiveSyncErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateArchive(dir, ArchiveConfig{
		SyncEvery: 1000, // keep per-batch syncs out of the way; fail at seal
		Open: func(path string) (io.WriteCloser, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return failingSyncFile{f}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(archiveBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync through failing file succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the sync failure")
	}
}

// TestIterArchiveSkipTo is the wire.SkipTo contract: a callback that asks
// at the first batch to skip to n is handed exactly the full stream's
// batches n+1… — for n from the start, at a segment boundary,
// mid-segment, at the end and past it, over an archive and over a legacy
// window dir — and repeated requests compose, one at or below the current
// position skipping nothing.
func TestIterArchiveSkipTo(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	w, err := CreateArchive(dir, ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.WriteBatch(archiveBatch(i, 5)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := copyLegacyFixture(t)
	for _, d := range []string{dir, legacy} {
		full := collectArchive(t, d) // the archive's segments hold 3, 3, 3 and 1
		for _, n := range []int{0, 1, 3, 4, 6, 9, 10, 15} {
			var got []wire.Batch
			keep, first := appendBatch(&got), true
			if err := IterArchive(d, func(b *wire.Batch) error {
				if first {
					first = false
					if n == 0 {
						keep(b)
					}
					return wire.SkipTo(n)
				}
				return keep(b)
			}); err != nil {
				t.Fatalf("%s: SkipTo(%d): %v", filepath.Base(d), n, err)
			}
			if want := full[min(n, len(full)):]; len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Errorf("%s: SkipTo(%d) at the first batch delivers %d batches, want the %d after it", filepath.Base(d), n, len(got), len(want))
			}
		}
	}

	// Repeated skips, by 1-based position: from 1 to 2, from 3 past the
	// rest of segment 2, a no-op at 6, one below the position at 7, then
	// to 9.
	full := collectArchive(t, dir)
	skips := map[int]int{1: 2, 3: 5, 6: 6, 7: 4, 8: 9}
	delivered := []int{1, 3, 6, 7, 8, 10}
	calls := 0
	if err := IterArchive(dir, func(b *wire.Batch) error {
		if calls == len(delivered) {
			t.Fatalf("delivered more than positions %v", delivered)
		}
		pos := delivered[calls]
		calls++
		if got := (wire.Batch{Rack: b.Rack, Epoch: b.Epoch, Samples: b.Samples}); !reflect.DeepEqual(got, full[pos-1]) {
			t.Errorf("call %d: got a batch other than position %d", calls, pos)
		}
		if to, ok := skips[pos]; ok {
			return wire.SkipTo(to)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != len(delivered) {
		t.Errorf("delivered %d batches, want positions %v", calls, delivered)
	}
}

// TestIterArchiveOtherErrorsStop: an error that is not a SkipTo still
// ends the iteration and comes back as is.
func TestIterArchiveOtherErrorsStop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	w, err := CreateArchive(dir, ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.WriteBatch(archiveBatch(i, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	calls := 0
	if err := IterArchive(dir, func(*wire.Batch) error { calls++; return stop }); err != stop || calls != 1 {
		t.Errorf("IterArchive = %v after %d calls, want the callback's error after 1", err, calls)
	}
}
