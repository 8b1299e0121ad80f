package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
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

func TestNewCodecUnknownFormat(t *testing.T) {
	if _, err := NewCodec(Format(9)); err == nil {
		t.Fatal("NewCodec accepted format 9")
	}
	if _, err := NewCodec(0); err == nil {
		t.Fatal("NewCodec accepted the zero format")
	}
	for _, f := range []Format{FormatMBW1, FormatMBW2, FormatMBW3} {
		c, err := NewCodec(f)
		if err != nil {
			t.Fatalf("NewCodec(%v): %v", f, err)
		}
		if c.Format() != f {
			t.Errorf("codec for %v reports %v", f, c.Format())
		}
	}
}

func TestMBW1CodecRejectsEpoch(t *testing.T) {
	c, err := NewCodec(FormatMBW1)
	if err != nil {
		t.Fatal(err)
	}
	b := sampleBatch()
	b.Epoch = 2
	if _, err := c.AppendBatch(nil, b); err == nil {
		t.Fatal("mbw1 codec encoded an epoch batch")
	}
	w, err := NewWriterFormat(io.Discard, FormatMBW1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(b); err == nil {
		t.Fatal("mbw1 writer accepted an epoch batch")
	}
	b.Epoch = 0
	if err := w.WriteBatch(b); err != nil {
		t.Fatalf("mbw1 writer rejected a zero-epoch batch: %v", err)
	}
}

func TestNewWriterFormatZeroIsDefault(t *testing.T) {
	w, err := NewWriterFormat(io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Format() != DefaultFormat {
		t.Fatalf("zero format resolved to %v, want %v", w.Format(), DefaultFormat)
	}
	if _, err := NewWriterFormat(io.Discard, Format(42)); err == nil {
		t.Fatal("NewWriterFormat accepted format 42")
	}
}

// TestWriterFormatsAgreeWithReader round-trips the same batches through a
// writer of every format; the reader must reproduce them exactly in all
// three.
func TestWriterFormatsAgreeWithReader(t *testing.T) {
	for _, f := range []Format{FormatMBW1, FormatMBW2, FormatMBW3} {
		var buf bytes.Buffer
		w, err := NewWriterFormat(&buf, f)
		if err != nil {
			t.Fatal(err)
		}
		var want []*Batch
		for i := 0; i < 4; i++ {
			b := sampleBatch()
			b.Rack = uint32(i)
			for j := range b.Samples {
				b.Samples[j].Time = b.Samples[j].Time.Add(simclock.Millis(int64(i)))
				b.Samples[j].Value += uint64(i * 1000)
			}
			if err := w.WriteBatch(b); err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			want = append(want, b)
		}
		r := NewReader(&buf)
		for i, wb := range want {
			got, err := r.ReadBatch()
			if err != nil {
				t.Fatalf("%v batch %d: %v", f, i, err)
			}
			if !reflect.DeepEqual(wb, got) {
				t.Fatalf("%v batch %d mismatch:\n in: %+v\nout: %+v", f, i, wb, got)
			}
		}
		if _, err := r.ReadBatch(); err != io.EOF {
			t.Fatalf("%v: expected EOF, got %v", f, err)
		}
	}
}

// TestInterleavedFormatsOneStream splices MBW1, MBW2, and MBW3 frames
// into a single stream; the reader must decode all of them, and the MBW3
// delta chain must survive the legacy frames in between.
func TestInterleavedFormatsOneStream(t *testing.T) {
	c3, err := NewCodec(FormatMBW3)
	if err != nil {
		t.Fatal(err)
	}
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

	var stream []byte
	stream, err = c3.AppendBatch(stream, c1)
	if err != nil {
		t.Fatal(err)
	}
	stream = AppendBatch(stream, m1)
	stream = AppendBatch(stream, m2)
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
		if !reflect.DeepEqual(want, got) {
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
	w, err := NewWriterFormat(&buf, FormatMBW3)
	if err != nil {
		t.Fatal(err)
	}
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
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay after Reset diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if !reflect.DeepEqual(first, []*Batch{b1, b2}) {
		t.Fatalf("decoded stream mismatch: %+v", first)
	}
}

func TestWriteBatchRejectsOversizedLegacy(t *testing.T) {
	// Alternating huge timestamps and values defeat the row format's
	// delta encoding (~20 bytes per sample), pushing the payload past
	// MaxBatchPayload with under a million samples.
	b := &Batch{Rack: 1}
	n := MaxBatchPayload/20 + 1
	for i := 0; i < n; i++ {
		s := Sample{Port: 1, Kind: asic.KindBytes}
		if i%2 == 0 {
			s.Time = simclock.Time(1 << 60)
			s.Value = 1 << 60
		}
		b.Samples = append(b.Samples, s)
	}
	var buf bytes.Buffer
	err := NewWriter(&buf).WriteBatch(b)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected batch still wrote %d bytes", buf.Len())
	}
}

func TestWriteBatchRejectsOversizedMBW3(t *testing.T) {
	b := oversizedBatch()
	var buf bytes.Buffer
	w, err := NewWriterFormat(&buf, FormatMBW3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.WriteBatch(b)
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
	if !reflect.DeepEqual(ok, got) {
		t.Fatalf("post-rejection batch mismatch:\n in: %+v\nout: %+v", ok, got)
	}
}
