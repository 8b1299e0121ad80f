package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mburst/internal/wire"
)

// segmentBytes encodes a few batches in format f, returning the raw
// stream — fuzz seed material for the recovery scanners.
func segmentBytes(tb testing.TB, f wire.Format) []byte {
	var buf bytes.Buffer
	bw, err := wire.NewWriterFormat(&buf, f)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b := archiveBatch(i, 16)
		b.Epoch = 0 // MBW1 seeds cannot carry a non-zero epoch
		if err := bw.WriteBatch(b); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzTraceRecover feeds arbitrary bytes to the archive and campaign
// recovery paths as a crashed tail. Recovery must never panic, must
// leave only decodable data behind, and what it reports must match what
// a subsequent read actually finds.
func FuzzTraceRecover(f *testing.F) {
	for _, format := range []wire.Format{wire.FormatMBW1, wire.FormatMBW2, wire.FormatMBW3} {
		data := segmentBytes(f, format)
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

		// Campaign path: the bytes are window 0 with no manifest entry.
		cdir := filepath.Join(t.TempDir(), "camp")
		w, err := Create(cdir, validMeta(), nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = w
		if err := os.WriteFile(filepath.Join(cdir, windowFileName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Recover(cdir)
		if err != nil {
			t.Fatalf("Recover: %v", err)
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
