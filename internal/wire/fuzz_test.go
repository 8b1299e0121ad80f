package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"reflect"
	"slices"
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
	// Mixed MBW3/MBW4 streams: a Writer's three-rack stream, the same after
	// a parent-written one-chain MBW3 stream over two racks, and frames
	// naming a new rack each.
	var mixedW bytes.Buffer
	mw := NewWriter(&mixedW)
	for _, b := range mixedChain() {
		if err := mw.WriteBatch(b); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(mixedW.Bytes())
	oneChain := newMBW3Codec()
	var interleaved []byte
	for i, b := range pollStream(4, 3, 1) {
		b.Rack = uint32(5 + i%2)
		if interleaved, err = oneChain.AppendBatch(interleaved, b); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(append(interleaved, mixedW.Bytes()...))
	var manyRacks []byte
	for rack := uint64(0); rack < 64; rack++ {
		manyRacks = appendFrame(manyRacks, Magic4, emptyPayload(rack<<20, 1))
	}
	f.Add(manyRacks)
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
	// A series table that lists a series twice, a column packed in each
	// mode, and predicted columns with paired modes, valid and broken,
	// framed.
	f.Add(appendFrame(nil, Magic3, dupSeriesPayload))
	for m := 1; m < numModes; m++ {
		p, _ := packedPayload(m, widthEdges(m))
		f.Add(appendFrame(nil, Magic3, p))
	}
	f.Add(appendFrame(nil, Magic3, predictedPayload))
	for _, p := range sortedMutants() {
		f.Add(appendFrame(nil, Magic3, p))
	}
	// Rotated series tables: a stream cut mid-poll, whose later frames
	// each send the table before rotated, and each way a rotated table can
	// be wrong, after the frames it follows.
	var rotated []byte
	for _, p := range encodeStream(f, rotatedStream()) {
		rotated = appendFrame(rotated, Magic3, p)
	}
	f.Add(rotated)
	mutants := rotatedMutants(f)
	var names []string
	for name := range mutants {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f.Add(mutants[name].framed())
	}

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
				if errClass(berr) != errClass(err) || !sameBatch(bb, b) || br.Offset() != r.Offset() {
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
			if !sameBatch(b, b3) {
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

// emptyPayload is the MBW3 payload of an empty batch.
func emptyPayload(rack, epoch uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, rack), epoch), 0)
}

// mixedChain is a Writer's stream over three racks: rack 5 alone (MBW3),
// then racks 6 and 7 join — 7 under another epoch — and every frame from
// there on is MBW4, rack 5's continuing the chain its MBW3 frames built.
func mixedChain() []*Batch {
	var out []*Batch
	for i, b := range pollStream(9, 4, 1) {
		b.Rack = []uint32{5, 5, 6, 5, 7, 6, 5, 7, 6}[i]
		if b.Rack == 7 {
			b.Epoch = 2
		}
		out = append(out, b)
	}
	return out
}

// frames splits a stream of frames into the frames themselves, trusting
// the framing.
func frames(tb testing.TB, stream []byte) [][]byte {
	tb.Helper()
	var out [][]byte
	for len(stream) > 0 {
		n, sz := binary.Uvarint(stream[4:])
		if sz <= 0 || len(stream) < 4+sz+int(n)+4 {
			tb.Fatalf("malformed test stream at frame %d", len(out))
		}
		out = append(out, stream[:4+sz+int(n)+4])
		stream = stream[4+sz+int(n)+4:]
	}
	return out
}

// FuzzMBW3Chain fuzzes the cross-batch delta chains, which FuzzReadBatch
// cannot reach: there a mutated frame dies at its CRC, so the decoder only
// ever sees mutations of a stream's first payload state. Here the stream
// is one of two fixtures — the parent-written one-rack chain, or
// mixedChain's MBW3-then-MBW4 stream over three racks — read up to frame
// k-1; the fuzzer's bytes stand in for payload k-1, framed under that
// frame's magic with a valid CRC, and the valid frames k-1 and k follow on
// the same Reader. Whatever the bytes, nothing panics; a rejected payload
// leaves the chains exactly as they were, so the untouched k-1 and k still
// decode to the originals; and an accepted one is a batch like any other —
// it re-encodes to a frame that decodes back to it.
func FuzzMBW3Chain(f *testing.F) {
	parent, err := os.ReadFile("testdata/mbw3_chain_parent.bin")
	if err != nil {
		f.Fatal(err)
	}
	var mixed bytes.Buffer
	w := NewWriter(&mixed)
	for _, b := range mixedChain() {
		if err := w.WriteBatch(b); err != nil {
			f.Fatal(err)
		}
	}
	fixtures := []struct {
		frames    [][]byte
		originals []*Batch
	}{
		{frames(f, parent), fixtureChain()},
		{frames(f, mixed.Bytes()), mixedChain()},
	}
	mutants := rotatedMutants(f)
	for which, fx := range fixtures {
		if len(fx.frames) != len(fx.originals) {
			f.Fatalf("fixture %d holds %d frames, its generator %d batches", which, len(fx.frames), len(fx.originals))
		}
		payloads := framePayloads(f, bytes.Join(fx.frames, nil))
		for k := 1; k < len(payloads); k++ {
			p := payloads[k-1]
			f.Add(uint8(which), uint8(k), p)
			f.Add(uint8(which), uint8(k), p[:len(p)/2])
			flipped := append([]byte(nil), p...)
			flipped[len(flipped)*2/3] ^= 0x10
			f.Add(uint8(which), uint8(k), flipped)
			f.Add(uint8(which), uint8(k), payloads[k]) // a frame that skips one
		}
	}
	// In place of the first frame: a series table that lists a series
	// twice, a column packed in each mode, and predicted columns with
	// paired modes, valid and broken.
	f.Add(uint8(0), uint8(1), dupSeriesPayload)
	for m := 1; m < numModes; m++ {
		p, _ := packedPayload(m, widthEdges(m))
		f.Add(uint8(0), uint8(1), p)
	}
	f.Add(uint8(0), uint8(1), predictedPayload)
	for _, p := range sortedMutants() {
		f.Add(uint8(0), uint8(1), p)
	}
	// In place of frame 2 of the parent-written chain: today's payload of
	// that batch, whose table is frame 1's rotated, and that payload under
	// a new epoch and with a rotation as long as the table. The same
	// payload first on the stream, and after the empty frame 3, where no
	// last table resolves it; and a rotation after a one-series table.
	var today bytes.Buffer
	tw := NewWriter(&today)
	for _, b := range fixtureChain() {
		if err := tw.WriteBatch(b); err != nil {
			f.Fatal(err)
		}
	}
	rot := framePayloads(f, today.Bytes())[2]
	at := tableAt(rot)
	check := NewReader(bytes.NewReader(append(bytes.Join(fixtures[0].frames[:2], nil), appendFrame(nil, Magic3, rot)...)))
	for i := 0; i < 3; i++ {
		if b, err := check.ReadBatch(); rot[at] != 0 || err != nil || !sameBatch(b, fixtures[0].originals[i]) {
			f.Fatalf("today's payload of batch 2 is not a rotated table that follows the parent's frames 0 and 1 (%v)", err)
		}
	}
	splice := func(at, drop int, b ...byte) []byte {
		return append(append(append([]byte(nil), rot[:at]...), b...), rot[at+drop:]...)
	}
	f.Add(uint8(0), uint8(2), rot)
	f.Add(uint8(0), uint8(2), splice(1, 1, 5)) // epoch 1 → 5
	f.Add(uint8(0), uint8(2), splice(at+1, 1, 6))
	f.Add(uint8(0), uint8(0), rot)
	f.Add(uint8(0), uint8(4), rot)
	f.Add(uint8(0), uint8(0), mutants["rotation after a one-series table"].bad)

	f.Fuzz(func(t *testing.T, which, k uint8, mutated []byte) {
		// Run tokens decouple a payload's size from its sample count; keep
		// the counts the fuzzer can claim small enough to decode cheaply.
		r := payloadReader{buf: mutated}
		r.uvarint()
		r.uvarint()
		if count := r.uvarint(); r.err == nil && count > 1<<14 {
			t.Skip()
		}
		fx := fixtures[int(which)%len(fixtures)]
		at := 1 + int(k)%(len(fx.frames)-1)
		stream := bytes.Join(fx.frames[:at-1], nil)
		stream = appendFrame(stream, binary.BigEndian.Uint32(fx.frames[at-1]), mutated)
		stream = append(append(stream, fx.frames[at-1]...), fx.frames[at]...)
		dec := NewReader(bytes.NewReader(stream))
		dec.SetReuse(true)
		for i := 0; i < at-1; i++ {
			if b, err := dec.ReadBatch(); err != nil || !sameBatch(fx.originals[i], b) {
				t.Fatalf("fixture frame %d: %v", i, err)
			}
		}
		before := readerChains(dec)
		got, err := dec.ReadBatch()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			if len(dec.batch.Samples) != 0 {
				t.Fatalf("a rejected payload left %d samples in the batch", len(dec.batch.Samples))
			}
			for rack, ch := range before {
				if now := readerChains(dec)[rack]; !reflect.DeepEqual(ch, now) {
					t.Fatalf("a rejected payload changed chain %d", rack)
				}
			}
			for i := at - 1; i <= at; i++ {
				b, err := dec.ReadBatch()
				if err != nil {
					t.Fatalf("frame %d after a rejected payload: %v", i, err)
				}
				if !sameBatch(fx.originals[i], b) {
					t.Fatalf("frame %d decodes differently after a rejected payload", i)
				}
			}
			return
		}
		got = &Batch{Rack: got.Rack, Epoch: got.Epoch, Samples: append([]Sample(nil), got.Samples...)}
		frame, err := newMBW3Codec().AppendBatch(nil, got)
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
		if !sameBatch(got, back) {
			t.Fatalf("re-encoded batch diverged:\n in: %+v\nout: %+v", got, back)
		}
		// The chains now continue from whatever was accepted; the valid
		// frames that follow may or may not fit them, but must not panic.
		dec.ReadBatch()
		dec.ReadBatch()
	})
}

// readerChains copies every chain r decodes on, keyed by rack, the
// stream chain under -1.
func readerChains(r *Reader) map[int64]mbw3Chain {
	out := make(map[int64]mbw3Chain)
	if r.stream != nil {
		out[-1] = chainCopy(r.stream)
	}
	for rack, ch := range r.racks {
		out[int64(rack)] = chainCopy(ch)
	}
	return out
}
