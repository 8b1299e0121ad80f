package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// passThroughSegment is a segment as a durable shard writes it after a
// roll: two racks' agent streams, decoded and archived, where rack 1's
// stream continues from the segment before. Its first frame is rack 1's,
// encoded to catch the new segment's chain up; the three after it — rack
// 2's first, then one more of each — pass through as the agents sent
// them. ends are the frame boundaries.
func passThroughSegment(tb testing.TB) (seg []byte, ends []int) {
	agents := map[uint32]*bytes.Buffer{1: {}, 2: {}}
	readers, writers := map[uint32]*wire.Reader{}, map[uint32]*wire.Writer{}
	for rack, buf := range agents {
		readers[rack], writers[rack] = wire.NewReader(buf), wire.NewWriter(buf)
	}
	var before, out bytes.Buffer
	arch := wire.NewWriter(&before)
	for i, rack := range []uint32{1, 1, 2, 1, 2} {
		if i == 1 {
			arch.Reset(&out) // the roll
		}
		b := archiveBatch(i, 16)
		b.Rack = rack
		if err := writers[rack].WriteBatch(b); err != nil {
			tb.Fatal(err)
		}
		got, err := readers[rack].ReadBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if err := arch.WriteBatch(got); err != nil {
			tb.Fatal(err)
		}
		if i > 0 {
			ends = append(ends, out.Len())
		}
	}
	if f := arch.Frames(); f.Encoded != 1 || f.Passed != 4 {
		tb.Fatalf("segment written as %+v, want one frame encoded and the rest passed through", f)
	}
	return out.Bytes(), ends
}

// FuzzTraceRecover feeds arbitrary bytes to the recovery scan three
// ways: as a collector's crashed open segment, as the sealed middle
// segment of a collector's log whose manifest entry they do not match,
// and as a recording's sealed-but-unlisted window. Recovery must never
// panic, must leave only decodable data behind — in a log, only its
// decodable prefix — and what it reports must match what a subsequent
// read actually finds.
func FuzzTraceRecover(f *testing.F) {
	// Seeds: a segment as it is written today, two as older builds left
	// them — an MBW1 window of a recording and an MBW2 segment of a
	// collector's log, both parent-written — and two MBW3 streams run
	// together, what appending to a segment with a fresh encoder writes.
	seg := segmentBytes(f)
	seeds := [][]byte{seg, append(append([]byte(nil), seg...), seg...)}
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
	// A shard's segment torn inside the rack's first, encoded frame, and
	// inside a frame that passed through.
	pt, ends := passThroughSegment(f)
	f.Add(pt[:ends[0]/2])
	f.Add(pt[:(ends[1]+ends[2])/2])
	f.Add([]byte{})
	f.Add([]byte{0x4d, 0x42, 0x57, 0x31})
	// A torn stream whose first frame spells its length as a non-minimal
	// varint, one byte longer than it needs: the reader accepts it, and
	// recovery must cut after the last whole frame as written, not where
	// the lengths alone would put it.
	n, sz := binary.Uvarint(seg[4:])
	padded := binary.AppendUvarint(append([]byte(nil), seg[:4]...), n)
	padded[len(padded)-1] |= 0x80
	padded = append(append(padded, 0), seg[4+sz:]...)
	f.Add(padded[:len(padded)-1])
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

		// Log path: the bytes are segment 2 of three, sealed under an entry
		// that claims more than they hold (a storage layer's short write), between
		// an intact sealed segment 1 and an intact open segment 3.
		ldir := filepath.Join(t.TempDir(), "log")
		if err := os.MkdirAll(ldir, 0o755); err != nil {
			t.Fatal(err)
		}
		good := segmentBytes(t)
		if err := saveArchiveManifest(ldir, ArchiveManifest{Segments: []SegmentInfo{
			{Seq: 1, Batches: 4, Samples: 64, Bytes: int64(len(good))},
			{Seq: 2, Batches: 4, Samples: 64, Bytes: int64(len(data)) + 1},
		}}); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{segName(1): good, segName(2): data, segOpenName(3): good} {
			if err := os.WriteFile(filepath.Join(ldir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		lrec, err := RecoverArchive(ldir)
		if err != nil {
			t.Fatalf("RecoverArchive: %v", err)
		}
		if len(lrec.Scanned) == 0 || lrec.Scanned[0].Name != segName(2) {
			t.Fatalf("log recovery scanned %+v, want segment 2 first", lrec.Scanned)
		}
		mid := lrec.Scanned[0]
		wantBatches := 4 + mid.Batches
		if mid.Torn {
			if len(lrec.RemovedSegments) != 1 || len(lrec.Scanned) != 1 {
				t.Fatalf("segment 2 scanned torn, yet recovery %+v kept what follows it", lrec)
			}
		} else {
			wantBatches += 4
			if len(lrec.RemovedSegments) != 0 {
				t.Fatalf("segment 2 scanned whole, yet recovery removed %v", lrec.RemovedSegments)
			}
		}
		batches = 0
		if err := IterArchive(ldir, func(*wire.Batch) error { batches++; return nil }); err != nil {
			t.Fatalf("recovered log does not decode: %v", err)
		}
		if batches != wantBatches || lrec.Batches != wantBatches {
			t.Fatalf("log recovery reported %d batches, replay found %d, want %d", lrec.Batches, batches, wantBatches)
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

// FuzzFleetMeta feeds arbitrary bytes to FleetMeta as a directory's
// campaign.json. It must not panic, and a placement it accepts must be
// usable as a fleet: valid, every shard name a clean, local subdirectory
// other than the fleet directory and distinct from the rest — so no two
// shards share a store — and every rack owned by a shard in range.
func FuzzFleetMeta(f *testing.F) {
	parent, err := os.ReadFile("../../cmd/mbdump/testdata/fleet_parent/campaign.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	plain, err := json.Marshal(validMeta())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	for _, shards := range [][]string{
		{"shard_000", "./shard_000"}, {"shard_000/"}, {"a/../shard_000"}, {"."},
	} {
		var meta Meta
		if err := json.Unmarshal(parent, &meta); err != nil {
			f.Fatal(err)
		}
		meta.Placement.Shards = shards
		data, err := json.Marshal(meta)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, MetaFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		meta, ok, err := FleetMeta(dir)
		if !ok || err != nil {
			return
		}
		pl := meta.Placement
		if err := pl.Validate(); err != nil {
			t.Fatalf("accepted placement %+v is invalid: %v", pl, err)
		}
		seen := make(map[string]bool, pl.NumShards())
		for i, name := range pl.Shards {
			if !filepath.IsLocal(name) || filepath.Clean(name) != name || name == "." || seen[name] {
				t.Fatalf("accepted shard %d's archive dir %q aliases or escapes (shards %q)", i, name, pl.Shards)
			}
			seen[name] = true
		}
		for _, rack := range []uint32{0, 1, 2, 999, 1<<32 - 1} {
			if k := pl.ShardOf(rack); k < 0 || k >= pl.NumShards() {
				t.Fatalf("rack %d placed on shard %d of %d", rack, k, pl.NumShards())
			}
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
// manifest is trusted for) reported with the manifest's counts. When the
// counts it leaves are the segments' true ones, a wire.SkipTo(k) asked at
// the first batch must yield exactly the full stream's batches k+1….
func FuzzArchiveManifest(f *testing.F) {
	seg := segmentBytes(f)
	f.Add([]byte(`{"wire_format":"mbw3","segments":[{"seq":1,"batches":4,"samples":64,"bytes":` + fmt.Sprint(len(seg)) + `}]}`))
	// Segment 1 at its true size with no count: trusted, and read in full
	// by any iteration that did not ask to skip.
	f.Add([]byte(`{"segments":[{"seq":1,"bytes":` + fmt.Sprint(len(seg)) + `}]}`))
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
		var full []wire.Batch
		if err := IterArchive(dir, appendBatch(&full)); err != nil {
			t.Fatalf("recovered archive does not decode: %v", err)
		}
		batches, samples := uint64(len(full)), uint64(0)
		for _, b := range full {
			samples += uint64(len(b.Samples))
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
		man, err := loadArchiveManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range man.Segments {
			if s.Batches != 4 {
				return // counts the skip cannot go by
			}
		}
		for k := 0; k <= len(full)+1; k++ {
			var got []wire.Batch
			keep, first := appendBatch(&got), true
			if err := IterArchive(dir, func(b *wire.Batch) error {
				if first {
					first = false
					if k == 0 {
						keep(b)
					}
					return wire.SkipTo(k)
				}
				return keep(b)
			}); err != nil {
				t.Fatalf("SkipTo(%d): %v", k, err)
			}
			want := full[min(k, len(full)):]
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("SkipTo(%d) at the first batch yields %d batches, want the %d after it", k, len(got), len(want))
			}
		}
	})
}
