package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mburst/internal/wire"
)

// segmentBytes encodes a few batches, returning the raw stream — fuzz
// seed material for the recovery scanners.
func segmentBytes(tb testing.TB) []byte {
	var buf bytes.Buffer
	bw := wire.NewWriter(&buf)
	for i := 0; i < 4; i++ {
		if err := bw.WriteBatch(archiveBatch(i, 16)); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzTraceRecover feeds arbitrary bytes to the recovery scan as a crashed
// tail, once as a collector's open segment and once as a recording's
// sealed-but-unlisted window. Recovery must never panic, must
// leave only decodable data behind, and what it reports must match what
// a subsequent read actually finds.
func FuzzTraceRecover(f *testing.F) {
	// Seeds: a segment as it is written today, and two as older builds
	// left them — an MBW1 window of a recording and an MBW2 segment of a
	// collector's log, both parent-written.
	seeds := [][]byte{segmentBytes(f)}
	for _, legacy := range []string{
		"../../cmd/mbreplay/testdata/trace_v1_parent/seg_000001.mbw",
		"../../cmd/mbdump/testdata/fleet_parent/shard_000/seg_000002.mbw",
	} {
		data, err := os.ReadFile(legacy)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, data := range seeds {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0x4d, 0x42, 0x57, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Archive path: the bytes are a crashed open segment.
		dir := filepath.Join(t.TempDir(), "arch")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := saveArchiveManifest(dir, ArchiveManifest{}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segOpenName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverArchive(dir)
		if err != nil {
			t.Fatalf("RecoverArchive: %v", err)
		}
		var batches, samples uint64
		if err := IterArchive(dir, func(b *wire.Batch) error {
			batches++
			samples += uint64(len(b.Samples))
			return nil
		}); err != nil {
			t.Fatalf("recovered archive does not decode: %v", err)
		}
		if batches != rec.Batches || samples != rec.Samples {
			t.Fatalf("recovery reported %d/%d batches/samples, replay found %d/%d",
				rec.Batches, rec.Samples, batches, samples)
		}

		// Campaign path: the bytes are window 0 of a recording, under its
		// sealed name but with no manifest entry.
		cdir := filepath.Join(t.TempDir(), "camp")
		if _, err := Create(cdir, validMeta(), nil); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := RecoverArchive(cdir)
		if err != nil {
			t.Fatalf("RecoverArchive: %v", err)
		}
		if len(rep.Scanned) != 1 {
			t.Fatalf("campaign recovery scanned %d windows, want 1", len(rep.Scanned))
		}
		r, err := Open(cdir)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		if err := r.IterWindow(0, func(b *wire.Batch) error {
			got += uint64(len(b.Samples))
			return nil
		}); err != nil {
			t.Fatalf("recovered window does not decode: %v", err)
		}
		if got != rep.Scanned[0].Samples {
			t.Fatalf("recovery reported %d samples, replay found %d", rep.Scanned[0].Samples, got)
		}
	})
}

// FuzzArchiveManifest feeds arbitrary bytes to the one manifest parser as
// archive.json beside two valid segments. Recovery may refuse the
// manifest; it must not panic on it — negative, duplicate and huge seq
// included — and when it succeeds the manifest it leaves must make
// IterArchive decode both segments, whole, once each. Its report must
// account for both: scanned ones counted truthfully, and a segment taken
// on the manifest's word (listed at its true size — the one thing a
// manifest is trusted for) reported with the manifest's counts.
func FuzzArchiveManifest(f *testing.F) {
	seg := segmentBytes(f)
	f.Add([]byte(`{"wire_format":"mbw3","segments":[{"seq":1,"batches":4,"samples":64,"bytes":` + fmt.Sprint(len(seg)) + `}]}`))
	f.Add([]byte(`{"segments":[{"seq":1,"bytes":1},{"seq":1,"bytes":2},{"seq":-1},{"seq":9223372036854775807}]}`))
	f.Add([]byte(`{"segments":[{"seq":1e99}]}`))
	f.Add([]byte(`{"segments":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{
			ArchiveManifestName: manifest, segName(1): seg, segName(2): seg,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := RecoverArchive(dir)
		if err != nil {
			return
		}
		var batches, samples uint64
		if err := IterArchive(dir, func(b *wire.Batch) error {
			batches++
			samples += uint64(len(b.Samples))
			return nil
		}); err != nil {
			t.Fatalf("recovered archive does not decode: %v", err)
		}
		if batches != 8 || samples != 128 {
			t.Fatalf("two whole segments of 4 batches, 64 samples replay as %d batches, %d samples", batches, samples)
		}
		if rec.SealedSegments+len(rec.Scanned) != 2 {
			t.Fatalf("recovery accounts for %d trusted + %d scanned segments, want 2 in all", rec.SealedSegments, len(rec.Scanned))
		}
		for _, sc := range rec.Scanned {
			if sc.Batches != 4 || sc.Samples != 64 || sc.Torn {
				t.Fatalf("whole segment scanned as %+v", sc)
			}
		}
		if rec.SealedSegments == 0 && (rec.Batches != batches || rec.Samples != samples) {
			t.Fatalf("recovery reported %d/%d batches/samples, replay found %d/%d",
				rec.Batches, rec.Samples, batches, samples)
		}
	})
}
