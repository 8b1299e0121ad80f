package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

func TestFormatStringAndParse(t *testing.T) {
	for _, f := range []Format{FormatMBW1, FormatMBW2, FormatMBW3} {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("mbw9"); err == nil {
		t.Error("ParseFormat accepted mbw9")
	}
	if _, err := ParseFormat(""); err == nil {
		t.Error("ParseFormat accepted empty string")
	}
}

// TestNewWriterFormatZeroIsDefault: the format argument that survives for
// bench/adapter.go selects nothing — zero and FormatMBW3 both give the one
// writer there is, and the read-only formats are refused.
func TestNewWriterFormatZeroIsDefault(t *testing.T) {
	for _, f := range []Format{0, FormatMBW3} {
		var buf bytes.Buffer
		w, err := NewWriterFormat(&buf, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBatch(sampleBatch()); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf.Bytes(), []byte("MBW3")) {
			t.Fatalf("format %v wrote %q, want an MBW3 frame", f, buf.Bytes()[:4])
		}
	}
	for _, f := range []Format{FormatMBW1, FormatMBW2, Format(42)} {
		if _, err := NewWriterFormat(io.Discard, f); err == nil {
			t.Fatalf("NewWriterFormat accepted %v", f)
		}
	}
}

// TestWriterFormatsAgreeWithReader round-trips the same batches through
// the writer and through the legacy reference encoder; the reader must
// reproduce them exactly from either stream.
func TestWriterFormatsAgreeWithReader(t *testing.T) {
	var want []*Batch
	var legacy, mbw3 bytes.Buffer
	w := NewWriter(&mbw3)
	for i := 0; i < 4; i++ {
		b := sampleBatch()
		b.Rack = uint32(i)
		b.Epoch = uint32(i / 2) // the legacy stream mixes MBW1 and MBW2 framing
		for j := range b.Samples {
			b.Samples[j].Time = b.Samples[j].Time.Add(simclock.Millis(int64(i)))
			b.Samples[j].Value += uint64(i * 1000)
		}
		legacy.Write(refAppendLegacy(nil, b))
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	for name, stream := range map[string]*bytes.Buffer{"legacy": &legacy, "mbw3": &mbw3} {
		r := NewReader(stream)
		for i, wb := range want {
			got, err := r.ReadBatch()
			if err != nil {
				t.Fatalf("%s batch %d: %v", name, i, err)
			}
			if !sameBatch(wb, got) {
				t.Fatalf("%s batch %d mismatch:\n in: %+v\nout: %+v", name, i, wb, got)
			}
		}
		if _, err := r.ReadBatch(); err != io.EOF {
			t.Fatalf("%s: expected EOF, got %v", name, err)
		}
	}
}

// TestInterleavedFormatsOneStream splices MBW1, MBW2, and MBW3 frames
// into a single stream; the reader must decode all of them, and the MBW3
// delta chain must survive the legacy frames in between.
func TestInterleavedFormatsOneStream(t *testing.T) {
	c3 := newMBW3Codec()
	m1 := sampleBatch() // epoch 0: MBW1 framing
	m2 := sampleBatch()
	m2.Epoch = 4 // MBW2 framing
	c1 := &Batch{Rack: 9, Samples: []Sample{
		{Time: simclock.Epoch.Add(simclock.Micros(25)), Port: 2, Dir: asic.TX, Kind: asic.KindBytes, Value: 1000},
		{Time: simclock.Epoch.Add(simclock.Micros(50)), Port: 2, Dir: asic.TX, Kind: asic.KindBytes, Value: 1500},
	}}
	c2 := &Batch{Rack: 9, Samples: []Sample{
		{Time: simclock.Epoch.Add(simclock.Micros(75)), Port: 2, Dir: asic.TX, Kind: asic.KindBytes, Value: 2250},
	}}

	stream, err := c3.AppendBatch(nil, c1)
	if err != nil {
		t.Fatal(err)
	}
	stream = refAppendLegacy(stream, m1)
	stream = refAppendLegacy(stream, m2)
	stream, err = c3.AppendBatch(stream, c2) // deltas chain over the legacy frames
	if err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(stream))
	for i, want := range []*Batch{c1, m1, m2, c2} {
		got, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !sameBatch(want, got) {
			t.Fatalf("batch %d mismatch:\n in: %+v\nout: %+v", i, want, got)
		}
	}
	if _, err := r.ReadBatch(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestReaderReset replays the same MBW3 stream through one Reader twice;
// Reset must restart the delta chains so the second pass decodes
// identically.
func TestReaderReset(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b1 := sampleBatch()
	b2 := sampleBatch()
	for j := range b2.Samples {
		b2.Samples[j].Time = b2.Samples[j].Time.Add(simclock.Millis(1))
		b2.Samples[j].Value *= 3
	}
	if err := w.WriteBatch(b1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(b2); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	r := NewReader(bytes.NewReader(stream))
	readAll := func(pass int) []*Batch {
		var out []*Batch
		for {
			b, err := r.ReadBatch()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			out = append(out, b)
		}
	}
	first := readAll(1)
	r.Reset(bytes.NewReader(stream))
	second := readAll(2)
	if !sameBatches(first, second) {
		t.Fatalf("replay after Reset diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if !sameBatches(first, []*Batch{b1, b2}) {
		t.Fatalf("decoded stream mismatch: %+v", first)
	}
}

func TestWriteBatchRejectsOversizedMBW3(t *testing.T) {
	b := oversizedBatch()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	err := w.WriteBatch(b)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected batch still wrote %d bytes", buf.Len())
	}
	// The failed write must not have advanced the delta chain: a normal
	// batch written afterwards still decodes exactly.
	ok := sampleBatch()
	if err := w.WriteBatch(ok); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBatch(ok, got) {
		t.Fatalf("post-rejection batch mismatch:\n in: %+v\nout: %+v", ok, got)
	}
}
