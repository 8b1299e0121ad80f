package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"
	"testing/iotest"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// FuzzReadBatch throws arbitrary bytes at the decoder: it must either
// return a batch, a clean EOF, or a wrapped error — never panic, never
// allocate unboundedly, and any successfully decoded batch must re-encode
// to a decodable batch (idempotence of the round trip). The buffered and
// unbuffered read paths must decode the same batches, at the same
// offsets, to the same end.
func FuzzReadBatch(f *testing.F) {
	// Seeds: a valid single-batch stream, a valid two-batch stream,
	// truncations, and flipped bytes.
	valid := refAppendLegacy(nil, &Batch{
		Rack: 3,
		Samples: []Sample{
			{Time: simclock.Epoch.Add(simclock.Micros(25)), Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Value: 999},
			{Time: simclock.Epoch.Add(simclock.Micros(50)), Port: 1, Dir: asic.TX, Kind: asic.KindSizeBins,
				Bins: [asic.NumSizeBins]uint64{1, 2, 3, 4, 5, 6}},
		},
	})
	f.Add(valid)
	f.Add(refAppendLegacy(valid, &Batch{Rack: 9}))
	// An MBW2 epoch batch, alone and interleaved with legacy framing.
	epochBatch := refAppendLegacy(nil, &Batch{Rack: 3, Epoch: 5, Samples: []Sample{
		{Time: simclock.Epoch.Add(simclock.Micros(25)), Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Value: 999},
	}})
	f.Add(epochBatch)
	f.Add(append(append([]byte(nil), valid...), epochBatch...))
	// What a legacy writer really produced.
	parentLegacy, err := os.ReadFile("testdata/legacy_parent.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parentLegacy)
	// MBW3 seeds: a single columnar batch, a chained pair (the second
	// carries only deltas), an epoch bump that resets the chains, and an
	// MBW3 chain interleaved with legacy frames on one stream.
	c3 := newMBW3Codec()
	mb := func(epoch uint32, base uint64) *Batch {
		return &Batch{Rack: 3, Epoch: epoch, Samples: []Sample{
			{Time: simclock.Epoch.Add(simclock.Micros(25)), Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Value: base},
			{Time: simclock.Epoch.Add(simclock.Micros(25)), Port: 2, Dir: asic.RX, Kind: asic.KindSizeBins,
				Bins: [asic.NumSizeBins]uint64{base, 2, 3, 4, 5, 6}},
			{Time: simclock.Epoch.Add(simclock.Micros(50)), Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Value: base + 1500},
		}}
	}
	v3, err := c3.AppendBatch(nil, mb(0, 1000))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), v3...))
	chained, err := c3.AppendBatch(append([]byte(nil), v3...), mb(0, 2500))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), chained...))
	bumped, err := c3.AppendBatch(append([]byte(nil), chained...), mb(7, 40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bumped)
	c3b := newMBW3Codec()
	mixed, err := c3b.AppendBatch(nil, mb(0, 1000))
	if err != nil {
		f.Fatal(err)
	}
	mixed = refAppendLegacy(mixed, &Batch{Rack: 9})
	mixed = append(mixed, epochBatch...)
	mixed, err = c3b.AppendBatch(mixed, mb(0, 2500))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	f.Add(v3[:len(v3)/2])
	corrupt3 := append([]byte(nil), v3...)
	corrupt3[len(corrupt3)-6] ^= 0x55
	f.Add(corrupt3)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a batch"))
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0xff
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		// One stream, three sources: a bytes.Reader is read as is, the
		// other two through the Reader's own buffer, one of them a byte
		// per Read. All three must agree batch for batch.
		r := NewReader(bytes.NewReader(data))
		buffered := []*Reader{
			NewReader(iotest.OneByteReader(bytes.NewReader(data))),
			NewReader(iotest.HalfReader(bytes.NewReader(data))),
		}
		for i := 0; i < 100; i++ { // bound iterations for pathological inputs
			b, err := r.ReadBatch()
			for k, br := range buffered {
				bb, berr := br.ReadBatch()
				if errClass(berr) != errClass(err) || !reflect.DeepEqual(bb, b) || br.Offset() != r.Offset() {
					t.Fatalf("frame %d: buffered source %d read (%v, offset %d), the bytes.Reader (%v, offset %d)",
						i, k, berr, br.Offset(), err, r.Offset())
				}
			}
			if err != nil {
				// Any error is a clean EOF, corruption or a wrapped read
				// failure, never a panic-worthy state; a clean EOF means
				// every byte was a returned frame.
				if err == io.EOF && r.Offset() != int64(len(data)) {
					t.Fatalf("clean EOF at offset %d of %d bytes", r.Offset(), len(data))
				}
				return
			}
			// A decoded batch must round-trip through the legacy framing.
			re := refAppendLegacy(nil, b)
			b2, err := NewReader(bytes.NewReader(re)).ReadBatch()
			if err != nil {
				t.Fatalf("re-encoded batch failed to decode: %v", err)
			}
			if len(b2.Samples) != len(b.Samples) || b2.Rack != b.Rack {
				t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
					b.Rack, len(b.Samples), b2.Rack, len(b2.Samples))
			}
			// And through a fresh MBW3 stream, exactly. A fresh encode
			// carries absolutes, so it can legitimately exceed the payload
			// cap where the delta-encoded original did not.
			enc3 := newMBW3Codec()
			re3, err := enc3.AppendBatch(nil, b)
			if errors.Is(err, ErrBatchTooLarge) {
				continue
			}
			if err != nil {
				t.Fatalf("mbw3 re-encode failed: %v", err)
			}
			b3, err := NewReader(bytes.NewReader(re3)).ReadBatch()
			if err != nil {
				t.Fatalf("mbw3 re-encoded batch failed to decode: %v", err)
			}
			if !reflect.DeepEqual(b, b3) {
				t.Fatalf("mbw3 round trip diverged:\n in: %+v\nout: %+v", b, b3)
			}
		}
	})
}

// errClass sorts a ReadBatch error into what a caller tells apart: none,
// a clean end of stream, corruption, or a failed read.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "read"
}

// framePayloads splits a stream of frames into their payloads, trusting
// the framing (it is only fed streams this package just wrote).
func framePayloads(tb testing.TB, stream []byte) [][]byte {
	tb.Helper()
	var out [][]byte
	for len(stream) > 0 {
		n, sz := binary.Uvarint(stream[4:])
		if sz <= 0 || len(stream) < 4+sz+int(n)+4 {
			tb.Fatalf("malformed test stream at frame %d", len(out))
		}
		out = append(out, stream[4+sz:4+sz+int(n)])
		stream = stream[4+sz+int(n)+4:]
	}
	return out
}

// FuzzMBW3Chain fuzzes the cross-batch delta chain, which FuzzReadBatch
// cannot reach: there a mutated frame dies at its CRC, so the decoder only
// ever sees mutations of a stream's first payload state. Here the stream
// is the parent-written fixture, decoded up to frame k-1; the fuzzer's
// bytes stand in for payload k-1, and the valid payload k follows on the
// same codec. Whatever the bytes, nothing panics; a rejected payload
// leaves the stream state exactly as it was, so the untouched k-1 and k
// still decode to the originals; and an accepted one is a batch like any
// other — it re-encodes to a frame that decodes back to it.
func FuzzMBW3Chain(f *testing.F) {
	stream, err := os.ReadFile("testdata/mbw3_chain_parent.bin")
	if err != nil {
		f.Fatal(err)
	}
	payloads := framePayloads(f, stream)
	originals := fixtureChain()
	if len(payloads) != len(originals) {
		f.Fatalf("fixture holds %d frames, its generator %d batches", len(payloads), len(originals))
	}
	for k := 1; k < len(payloads); k++ {
		p := payloads[k-1]
		f.Add(uint8(k), p)
		f.Add(uint8(k), p[:len(p)/2])
		flipped := append([]byte(nil), p...)
		flipped[len(flipped)*2/3] ^= 0x10
		f.Add(uint8(k), flipped)
		f.Add(uint8(k), payloads[k]) // a frame that skips one
	}

	f.Fuzz(func(t *testing.T, k uint8, mutated []byte) {
		// Run tokens decouple a payload's size from its sample count; keep
		// the counts the fuzzer can claim small enough to decode cheaply.
		r := payloadReader{buf: mutated}
		r.uvarint()
		r.uvarint()
		if count := r.uvarint(); r.err == nil && count > 1<<14 {
			t.Skip()
		}
		at := 1 + int(k)%(len(payloads)-1)
		dec := newMBW3Codec()
		var got Batch
		for i := 0; i < at-1; i++ {
			if err := dec.DecodePayload(Magic3, payloads[i], &got); err != nil {
				t.Fatalf("fixture frame %d: %v", i, err)
			}
		}
		if err := dec.DecodePayload(Magic3, mutated, &got); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			for i := at - 1; i <= at; i++ {
				if err := dec.DecodePayload(Magic3, payloads[i], &got); err != nil {
					t.Fatalf("frame %d after a rejected payload: %v", i, err)
				}
				if !sameBatch(originals[i], &got) {
					t.Fatalf("frame %d decodes differently after a rejected payload", i)
				}
			}
			return
		}
		frame, err := newMBW3Codec().AppendBatch(nil, &got)
		if err != nil {
			if errors.Is(err, ErrBatchTooLarge) { // absolutes can outgrow what deltas fitted
				return
			}
			t.Fatalf("re-encoding an accepted batch: %v", err)
		}
		back, err := NewReader(bytes.NewReader(frame)).ReadBatch()
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if !sameBatch(&got, back) {
			t.Fatalf("re-encoded batch diverged:\n in: %+v\nout: %+v", &got, back)
		}
		// The chain now continues from whatever was accepted; the next
		// valid frame may or may not fit it, but must not panic.
		_ = dec.DecodePayload(Magic3, payloads[at], &got)
	})
}
