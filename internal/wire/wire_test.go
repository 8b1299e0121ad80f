package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

func sampleBatch() *Batch {
	return &Batch{
		Rack: 7,
		Samples: []Sample{
			{Time: simclock.Epoch.Add(simclock.Micros(25)), Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: 10_000},
			{Time: simclock.Epoch.Add(simclock.Micros(50)), Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: 16_250, Missed: 0},
			{Time: simclock.Epoch.Add(simclock.Micros(100)), Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: 16_250, Missed: 1},
			{Time: simclock.Epoch.Add(simclock.Micros(125)), Port: 9, Dir: asic.RX, Kind: asic.KindSizeBins, Value: 0,
				Bins: [asic.NumSizeBins]uint64{100, 20, 3, 0, 7, 999}},
			{Time: simclock.Epoch.Add(simclock.Micros(150)), Port: 0, Dir: asic.TX, Kind: asic.KindBufferPeak, Value: 123456},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := sampleBatch()
	if err := w.WriteBatch(in); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	out, err := r.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBatch(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	if _, err := r.ReadBatch(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestMultipleBatches(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		b := sampleBatch()
		b.Rack = uint32(i)
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < 5; i++ {
		b, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if b.Rack != uint32(i) {
			t.Errorf("batch %d rack = %d", i, b.Rack)
		}
	}
	if _, err := r.ReadBatch(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestEmptyBatch(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteBatch(&Batch{Rack: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := NewReader(&buf).ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Rack != 1 || len(b.Samples) != 0 {
		t.Errorf("batch = %+v", b)
	}
}

func TestCorruptMagic(t *testing.T) {
	data := refAppendLegacy(nil, sampleBatch())
	data[0] ^= 0xff
	_, err := NewReader(bytes.NewReader(data)).ReadBatch()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptPayload(t *testing.T) {
	data := refAppendLegacy(nil, sampleBatch())
	// Flip a bit inside the payload: the CRC must catch it.
	data[len(data)/2] ^= 0x40
	_, err := NewReader(bytes.NewReader(data)).ReadBatch()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCorruptCRC(t *testing.T) {
	data := refAppendLegacy(nil, sampleBatch())
	data[len(data)-1] ^= 0x01
	_, err := NewReader(bytes.NewReader(data)).ReadBatch()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	data := refAppendLegacy(nil, sampleBatch())
	for _, cut := range []int{1, 4, 6, len(data) - 2} {
		_, err := NewReader(bytes.NewReader(data[:cut])).ReadBatch()
		if err == nil || err == io.EOF {
			t.Errorf("cut at %d: err = %v, want failure", cut, err)
		}
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0x4d, 0x42, 0x57, 0x31
	buf.Write(hdr[:])
	// Claim a payload far over the limit.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	_, err := NewReader(&buf).ReadBatch()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// readCounter counts the Read calls made on a source. It is not an
// io.ByteReader, so a Reader over it reads through its own buffer.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReaderReadsOncePerBuffer holds a stream of small frames from a
// source that is not an io.ByteReader to one Read per buffer-full (bufio's
// default 4 KiB), plus the Read that finds the end — where reading each
// frame straight from the source takes at least four.
func TestReaderReadsOncePerBuffer(t *testing.T) {
	const frames, bufSize = 512, 4096
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for i := 0; i < frames; i++ {
		b := sampleBatch()
		for k := range b.Samples {
			b.Samples[k].Time = b.Samples[k].Time.Add(simclock.Micros(int64(i) * 200))
		}
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	src := &readCounter{r: bytes.NewReader(stream.Bytes())}
	r := NewReader(src)
	r.SetReuse(true)
	n := 0
	for {
		if _, err := r.ReadBatch(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != frames || r.Offset() != int64(stream.Len()) {
		t.Fatalf("read %d frames ending at offset %d, want %d ending at %d", n, r.Offset(), frames, stream.Len())
	}
	t.Logf("%d frames (%d B): %d source reads", frames, stream.Len(), src.reads)
	if bound := (stream.Len()+bufSize-1)/bufSize + 1; src.reads > bound {
		t.Errorf("%d frames (%d B) took %d source reads, want <= %d", frames, stream.Len(), src.reads, bound)
	}
}

func TestDecodeRejectsAbsurdRecordCount(t *testing.T) {
	// A payload that claims many records but contains none.
	payload := []byte{1, 0xff, 0xff, 0xff, 0x0f}
	err := decodeLegacyPayload(payload, false, &Batch{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestEpochRoundTrip(t *testing.T) {
	in := sampleBatch()
	in.Epoch = 3
	data := refAppendLegacy(nil, in)
	if got := binary.BigEndian.Uint32(data[:4]); got != Magic2 {
		t.Fatalf("epoch batch magic = %#x, want MBW2", got)
	}
	out, err := NewReader(bytes.NewReader(data)).ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBatch(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestEpochZeroKeepsLegacyFraming(t *testing.T) {
	// A legacy writer framed the zero epoch byte-identically to the
	// pre-epoch format: MBW1 magic and a payload whose header is exactly
	// (rack, count). The parent-written fixture opens with such a batch.
	fixture, err := os.ReadFile("testdata/legacy_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	b := legacyFixtureBatches()[0]
	if got := binary.BigEndian.Uint32(fixture[:4]); got != Magic {
		t.Fatalf("zero-epoch magic = %#x, want MBW1", got)
	}
	legacy := func(b *Batch) []byte {
		// Hand-rolled pre-epoch framing.
		payload := binary.AppendUvarint(nil, uint64(b.Rack))
		payload = binary.AppendUvarint(payload, uint64(len(b.Samples)))
		var prevTime int64
		var prevValue uint64
		for i := range b.Samples {
			s := &b.Samples[i]
			payload = binary.AppendVarint(payload, s.Time.Nanoseconds()-prevTime)
			prevTime = s.Time.Nanoseconds()
			payload = binary.AppendUvarint(payload, uint64(s.Port))
			payload = append(payload, byte(s.Dir)|byte(s.Kind)<<1)
			payload = binary.AppendUvarint(payload, uint64(s.Missed))
			payload = binary.AppendVarint(payload, int64(s.Value-prevValue))
			prevValue = s.Value
			if s.Kind == asic.KindSizeBins {
				for _, v := range s.Bins {
					payload = binary.AppendUvarint(payload, v)
				}
			}
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], Magic)
		out := append([]byte(nil), hdr[:]...)
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
		return append(out, crc[:]...)
	}
	if want := legacy(b); !bytes.HasPrefix(fixture, want) || !bytes.Equal(refAppendLegacy(nil, b), want) {
		t.Fatal("zero-epoch batch is not byte-identical to the legacy framing")
	}
}

func TestEpochInterleavedFramings(t *testing.T) {
	// MBW1 and MBW2 frames alternate on one legacy stream.
	var stream []byte
	epochs := []uint32{0, 2, 0, 7}
	for _, e := range epochs {
		b := sampleBatch()
		b.Epoch = e
		stream = refAppendLegacy(stream, b)
	}
	r := NewReader(bytes.NewReader(stream))
	for i, e := range epochs {
		b, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if b.Epoch != e {
			t.Errorf("batch %d epoch = %d, want %d", i, b.Epoch, e)
		}
	}
	if _, err := r.ReadBatch(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestEpochZeroInMBW2Rejected(t *testing.T) {
	// An MBW2 frame whose payload claims epoch 0 is corrupt: writers frame
	// epoch 0 as MBW1, so the combination only arises from corruption.
	payload := binary.AppendUvarint(nil, 1) // rack
	payload = binary.AppendUvarint(payload, 0)
	payload = binary.AppendUvarint(payload, 0) // count
	err := decodeLegacyPayload(payload, true, &Batch{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCumulativeValueWrap(t *testing.T) {
	// Deltas survive value regressions (e.g. a buffer gauge going down).
	in := &Batch{Rack: 0, Samples: []Sample{
		{Time: 1, Kind: asic.KindBufferPeak, Value: 1 << 40},
		{Time: 2, Kind: asic.KindBufferPeak, Value: 10},
		{Time: 3, Kind: asic.KindBufferPeak, Value: 1 << 50},
	}}
	data := refAppendLegacy(nil, in)
	out, err := NewReader(bytes.NewReader(data)).ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBatch(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
}

// Property: any batch of generated samples survives the legacy framing
// exactly, at exactly the nominal size.
func TestQuickRoundTrip(t *testing.T) {
	f := func(rack uint32, raw []struct {
		T    uint32
		Port uint16
		DK   uint8
		Miss uint16
		Val  uint64
		B0   uint16
	}) bool {
		in := &Batch{Rack: rack}
		var lastT int64
		for _, r := range raw {
			lastT += int64(r.T)
			s := Sample{
				Time:   simclock.Time(lastT),
				Port:   r.Port,
				Dir:    asic.Direction(r.DK & 1),
				Kind:   asic.CounterKind(int(r.DK>>1) % 5),
				Missed: uint32(r.Miss),
				Value:  r.Val,
			}
			if s.Kind == asic.KindSizeBins {
				s.Bins[0] = uint64(r.B0)
			}
			in.Samples = append(in.Samples, s)
		}
		data := refAppendLegacy(nil, in)
		out, err := NewReader(bytes.NewReader(data)).ReadBatch()
		if err != nil || EncodedSize(in) != len(data) {
			return false
		}
		return sameBatch(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodedSizeMatchesAppendBatch(t *testing.T) {
	cases := map[string]*Batch{
		"empty":      {Rack: 1},
		"mbw1":       sampleBatch(),
		"mbw2":       {Rack: 7, Epoch: 3, Samples: sampleBatch().Samples},
		"big-values": {Rack: 1 << 20, Epoch: 1<<32 - 1, Samples: []Sample{{Time: simclock.Epoch.Add(simclock.Millis(500)), Port: 300, Value: 1 << 60}}},
		"value-regression": {Rack: 2, Samples: []Sample{
			{Time: simclock.Epoch, Value: 1 << 40},
			{Time: simclock.Epoch.Add(simclock.Micros(1)), Value: 10},
		}},
	}
	for name, b := range cases {
		got := EncodedSize(b)
		want := len(refAppendLegacy(nil, b))
		if got != want {
			t.Errorf("%s: EncodedSize = %d, framed bytes = %d", name, got, want)
		}
	}
}

func TestEncodedSizeQuick(t *testing.T) {
	f := func(rack, epoch uint32, times []int64, values []uint64) bool {
		b := &Batch{Rack: rack, Epoch: epoch}
		for i := range times {
			var v uint64
			if i < len(values) {
				v = values[i]
			}
			b.Samples = append(b.Samples, Sample{
				Time:  simclock.Time(times[i]),
				Port:  uint16(i),
				Kind:  asic.KindBytes,
				Value: v,
			})
		}
		return EncodedSize(b) == len(refAppendLegacy(nil, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
