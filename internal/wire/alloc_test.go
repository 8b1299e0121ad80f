package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// The ingest side of the collector decodes every batch through
// Reader.ReadBatch with SetReuse(true), so once its buffers are warm a
// batch must decode without allocating. (The encode side's guard is
// TestMBW3SteadyEncodeAllocatesNothing.) Each run decodes a whole
// stream, so one allocation on any frame kind reads as at least 1.
const allocRuns = 1_000

// chainStream encodes the fixture chain — several series, one joining
// mid-stream, an empty batch and an epoch bump — and then an empty batch
// that bumps the epoch again, through one Writer.
func chainStream(t *testing.T) []byte {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, b := range append(fixtureChain(), &Batch{Rack: 3, Epoch: 3}) {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return stream.Bytes()
}

// TestReadBatchReuseAllocatesNothing passes one reused Reader over the
// chain stream followed by the legacy MBW1/MBW2 frames, restarting it
// with Reset for every pass: once reading the io.ByteReader source as is,
// once through the read-ahead buffer a socket or file gets.
func TestReadBatchReuseAllocatesNothing(t *testing.T) {
	legacy, err := os.ReadFile("testdata/legacy_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	stream := append(chainStream(t), legacy...)
	src := bytes.NewReader(stream)
	for name, s := range map[string]io.Reader{"byte reader": src, "buffered": &readCounter{r: src}} {
		r := NewReader(s)
		r.SetReuse(true)
		pass := func() {
			src.Reset(stream)
			r.Reset(s)
			for {
				if _, err := r.ReadBatch(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
		if allocs := testing.AllocsPerRun(allocRuns, pass); allocs != 0 {
			t.Errorf("%s: ReadBatch with reuse allocates %v times per pass, want 0", name, allocs)
		}
	}
}

// TestLyingFrameHeaderCostsOnlyWhatArrived sends a header claiming a
// MaxBatchPayload frame, then 10 bytes and the end of the stream: the
// Reader may spend on the bytes that came, not on the ones promised.
func TestLyingFrameHeaderCostsOnlyWhatArrived(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], Magic3)
	stream := binary.AppendUvarint(hdr[:], MaxBatchPayload)
	stream = append(stream, make([]byte, 10)...)
	for name, src := range map[string]io.Reader{
		"byte reader": bytes.NewReader(stream),
		"buffered":    &readCounter{r: bytes.NewReader(stream)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewReader(src).ReadBatch()
		runtime.ReadMemStats(&after)
		if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want a wrapped io.ErrUnexpectedEOF", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: a lying header cost %d B of allocation, want < 1 MiB", name, got)
		}
	}
}

// TestMBW3DecodeAllocatesNothing holds mbw3Codec.DecodePayload itself to
// zero allocations over the chain stream, restarting the codec every
// pass.
func TestMBW3DecodeAllocatesNothing(t *testing.T) {
	payloads := framePayloads(t, chainStream(t))
	dec := newMBW3Codec()
	var b Batch
	pass := func() {
		dec.Reset()
		for _, p := range payloads {
			if err := dec.DecodePayload(Magic3, p, &b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(allocRuns, pass); allocs != 0 {
		t.Errorf("DecodePayload allocates %v times per pass, want 0", allocs)
	}
}

// TestManyRacksCostWhatArrived reads a stream whose every frame names a
// new rack: the Reader keeps a chain per rack, and those may cost memory
// in proportion to the bytes that arrived — at most 16 B per byte, an
// empty chain and its map entry against a 15-byte frame — and no more.
func TestManyRacksCostWhatArrived(t *testing.T) {
	const racks = 20_000
	var stream []byte
	for rack := uint64(0); rack < racks; rack++ {
		stream = appendFrame(stream, Magic4, emptyPayload(rack*7919, 1))
	}
	r := NewReader(bytes.NewReader(stream))
	r.SetReuse(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; ; n++ {
		if _, err := r.ReadBatch(); err == io.EOF {
			if n != racks {
				t.Fatalf("read %d frames, want %d", n, racks)
			}
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(stream)); got > limit {
		t.Errorf("%d racks in %d B of frames cost %d B of allocation, want at most %d", racks, len(stream), got, limit)
	}
}

// fullCounterBatch is n samples of one rack's full counter set polled
// every 25 µs: bytes and packets both ways and TX size bins on 8 ports,
// plus the buffer-peak register — 41 series, the last poll cut off
// where n ends, as a batch boundary cuts a poll.
func fullCounterBatch(rack uint32, n int) *Batch {
	b := &Batch{Rack: rack, Epoch: 1, Samples: make([]Sample, 0, n)}
	t := simclock.Epoch
	for poll := uint64(1); len(b.Samples) < n; poll++ {
		t = t.Add(simclock.Micros(25))
		add := func(s Sample) {
			if len(b.Samples) < n {
				s.Time = t
				b.Samples = append(b.Samples, s)
			}
		}
		for port := uint16(0); port < 8; port++ {
			for _, dir := range []asic.Direction{asic.RX, asic.TX} {
				add(Sample{Port: port, Dir: dir, Kind: asic.KindBytes, Value: poll * uint64(1500+97*port)})
				add(Sample{Port: port, Dir: dir, Kind: asic.KindPackets, Value: poll * uint64(1+port)})
			}
			s := Sample{Port: port, Dir: asic.TX, Kind: asic.KindSizeBins}
			for k := range s.Bins {
				s.Bins[k] = poll * uint64(k+int(port))
			}
			add(s)
		}
		add(Sample{Kind: asic.KindBufferPeak, Value: poll % 7 * 4096})
	}
	return b
}

// freshPairAllocs bounds what a fresh Writer and Reader allocate to carry
// one full-counter batch once lent scratch is warm: 20 on go1.24, 25
// under the race detector, whose slices grow in smaller steps — the two
// structs, each side's chain (struct, series table, index map), the
// writer's rack map and frame buffer (grown once, to the frame: 21 when
// its trailing checksum could take a second growth), the reader's frame
// buffer (made once, at the first frame's length), batch, samples and
// touched list.
// The per-batch scratch (arenas, columns, payload) is lent, not
// allocated; when each stream owned its own, the same pair allocated 104
// times.
const freshPairAllocs = 26

// TestFreshStreamAllocatesOnlyItsChains: a stream that carries one batch
// — an agent's connection, an archive segment read back — pays for its
// chains and buffers, not for codec scratch it would throw away.
func TestFreshStreamAllocatesOnlyItsChains(t *testing.T) {
	b := fullCounterBatch(7, 512)
	var stream bytes.Buffer
	pair := func() {
		stream.Reset()
		if err := NewWriter(&stream).WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(&stream).ReadBatch()
		if err != nil || len(got.Samples) != len(b.Samples) {
			t.Fatalf("read back %v, %v", got, err)
		}
	}
	pair() // warms the lent scratch
	if allocs := testing.AllocsPerRun(100, pair); allocs > freshPairAllocs {
		t.Errorf("a fresh Writer and Reader carrying one %d-sample batch allocate %v times, want at most %d", len(b.Samples), allocs, freshPairAllocs)
	}
}
