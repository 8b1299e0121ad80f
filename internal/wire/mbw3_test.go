package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// pollStream synthesizes nBatches batches of a realistic polling stream:
// per poll, every series advances its cumulative counter and shares one
// timestamp, exactly as the poller emits. Values evolve deterministically
// so chained batches exercise the cross-batch delta state.
func pollStream(nBatches, pollsPerBatch int, epoch uint32) []*Batch {
	type series struct {
		port uint16
		dir  asic.Direction
		kind asic.CounterKind
		val  uint64
		bins [asic.NumSizeBins]uint64
	}
	sers := []*series{
		{port: 1, dir: asic.TX, kind: asic.KindBytes, val: 10_000},
		{port: 1, dir: asic.RX, kind: asic.KindBytes, val: 777},
		{port: 2, dir: asic.TX, kind: asic.KindPackets, val: 40},
		{port: 3, dir: asic.TX, kind: asic.KindSizeBins, bins: [asic.NumSizeBins]uint64{5, 4, 3, 2, 1, 0}},
		{port: 9, dir: asic.TX, kind: asic.KindBufferPeak},
	}
	t := simclock.Epoch
	var out []*Batch
	step := uint64(1)
	for bi := 0; bi < nBatches; bi++ {
		b := &Batch{Rack: 3, Epoch: epoch}
		for p := 0; p < pollsPerBatch; p++ {
			t = t.Add(simclock.Micros(25)).Add(simclock.Duration(p % 3)) // jittered completion
			var missed uint32
			if p%17 == 0 {
				missed = 1
			}
			for _, s := range sers {
				s.val += step * 97
				step = step*6364136223846793005 + 1442695040888963407
				step = (step >> 60) + 1 // small, varying increments
				smp := Sample{Time: t, Port: s.port, Dir: s.dir, Kind: s.kind, Missed: missed, Value: s.val}
				if s.kind == asic.KindSizeBins {
					for k := range s.bins {
						s.bins[k] += uint64(k) + step
					}
					smp.Bins = s.bins
				}
				b.Samples = append(b.Samples, smp)
			}
		}
		out = append(out, b)
	}
	return out
}

// TestMBW3ChainedRoundTrip writes a multi-batch stream and reads it back;
// every batch must reproduce exactly, including the ones that only carry
// deltas.
func TestMBW3ChainedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	batches := pollStream(5, 40, 0)
	for _, b := range batches {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range batches {
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

// TestMBW3EpochBumpResetsChain verifies the restart contract: the first
// batch of a new epoch carries absolutes, so a reader that joins the
// stream at the bump (having missed the whole previous epoch) still
// decodes exact values.
func TestMBW3EpochBumpResetsChain(t *testing.T) {
	c := newMBW3Codec()
	old := pollStream(2, 30, 1)
	fresh := pollStream(2, 30, 2)
	var full, tail []byte
	var err error
	for _, b := range old {
		if full, err = c.AppendBatch(full, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range fresh {
		pre := len(full)
		if full, err = c.AppendBatch(full, b); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, full[pre:]...)
	}

	// A reader over the full stream sees everything.
	r := NewReader(bytes.NewReader(full))
	for i, want := range append(append([]*Batch{}, old...), fresh...) {
		got, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("full stream batch %d: %v", i, err)
		}
		if !sameBatch(want, got) {
			t.Fatalf("full stream batch %d mismatch", i)
		}
	}

	// A late joiner that only sees the new epoch decodes it exactly too.
	r = NewReader(bytes.NewReader(tail))
	for i, want := range fresh {
		got, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("tail batch %d: %v", i, err)
		}
		if !sameBatch(want, got) {
			t.Fatalf("tail batch %d mismatch:\n in: %+v\nout: %+v", i, want, got)
		}
	}
}

// TestMBW3EncodedSizeMatchesAndIsStateless checks that EncodedSize
// predicts AppendBatch exactly at every point of a chained stream, and
// that calling it (even repeatedly, even across an epoch bump) does not
// advance the delta chain.
func TestMBW3EncodedSizeMatchesAndIsStateless(t *testing.T) {
	enc := newMBW3Codec()
	bump := pollStream(1, 5, 9)[0]
	for i, b := range pollStream(4, 25, 0) {
		want := enc.EncodedSize(b)
		enc.EncodedSize(bump) // must not disturb the chain
		enc.EncodedSize(b)
		frame, err := enc.AppendBatch(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != want {
			t.Fatalf("batch %d: EncodedSize = %d, framed bytes = %d", i, want, len(frame))
		}
		// Later batches are pure deltas and must frame smaller than the
		// absolute-carrying first batch would alone.
		if i > 0 {
			if fresh := newMBW3Codec().EncodedSize(b); want >= fresh+fresh/2 {
				t.Fatalf("batch %d: chained size %d not benefiting from state (fresh %d)", i, want, fresh)
			}
		}
	}
}

// TestMBW3EmptyBatch round-trips empty batches, including an epoch bump
// carried by an empty batch (which must still reset the chains).
func TestMBW3EmptyBatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	stream := pollStream(1, 10, 0)[0]
	seq := []*Batch{{Rack: 5}, stream, {Rack: 5, Epoch: 2}, pollStream(1, 10, 2)[0]}
	for _, b := range seq {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range seq {
		got, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if got.Rack != want.Rack || got.Epoch != want.Epoch || len(got.Samples) != len(want.Samples) {
			t.Fatalf("batch %d shape mismatch: %+v vs %+v", i, want, got)
		}
		if len(want.Samples) > 0 && !sameBatch(want, got) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

// TestMBW3QuickRoundTrip is the arbitrary-content property test: any
// canonical batch (Dir in {0,1}, Kind < 128 — what decoders can ever
// produce) must round-trip exactly through a fresh stream, and a second
// chained batch of the same shape must too.
func TestMBW3QuickRoundTrip(t *testing.T) {
	f := func(rack uint32, raw []struct {
		T    uint32
		Port uint16
		DK   uint8
		Miss uint32
		Val  uint64
		B0   uint64
	}, second bool) bool {
		mk := func(shift uint64) *Batch {
			b := &Batch{Rack: rack}
			var lastT int64
			for _, r := range raw {
				lastT += int64(r.T)
				s := Sample{
					Time:   simclock.Time(lastT),
					Port:   r.Port,
					Dir:    asic.Direction(r.DK & 1),
					Kind:   asic.CounterKind(int(r.DK>>1) % 5),
					Missed: r.Miss,
					Value:  r.Val + shift,
				}
				if s.Kind == asic.KindSizeBins {
					s.Bins[0] = r.B0
					s.Bins[3] = r.B0 >> 7
				}
				b.Samples = append(b.Samples, s)
			}
			return b
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []*Batch
		want = append(want, mk(0))
		if second {
			want = append(want, mk(1<<40))
		}
		for _, b := range want {
			if err := w.WriteBatch(b); err != nil {
				return false
			}
		}
		r := NewReader(&buf)
		for _, wb := range want {
			got, err := r.ReadBatch()
			if err != nil {
				return false
			}
			if len(wb.Samples) == 0 {
				if got.Rack != wb.Rack || len(got.Samples) != 0 {
					return false
				}
				continue
			}
			if !sameBatch(wb, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMBW3ReaderReuse decodes with SetReuse enabled and checks the
// samples of every batch against a non-reusing reader.
func TestMBW3ReaderReuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	batches := pollStream(4, 30, 0)
	for _, b := range batches {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.SetReuse(true)
	var prev *Batch
	for i, want := range batches {
		got, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if prev != nil && got != prev {
			t.Fatal("reuse mode returned a different *Batch")
		}
		prev = got
		if !reflect.DeepEqual(want.Samples, got.Samples) || want.Rack != got.Rack {
			t.Fatalf("batch %d mismatch under reuse", i)
		}
	}

	// The decoder fills the reused samples in place, so what the previous
	// batch left there must not show through: a size-bin sample followed,
	// at the same position of the next batch, by a sample without bins.
	at := simclock.Epoch.Add(simclock.Micros(25))
	binned := &Batch{Rack: 3, Samples: []Sample{
		{Time: at, Port: 3, Dir: asic.TX, Kind: asic.KindSizeBins, Value: 9, Bins: [asic.NumSizeBins]uint64{6, 5, 4, 3, 2, 1}},
		{Time: at, Port: 4, Dir: asic.TX, Kind: asic.KindSizeBins, Value: 7, Bins: [asic.NumSizeBins]uint64{1, 1, 1, 1, 1, 1}},
	}}
	plain := &Batch{Rack: 3, Samples: []Sample{
		{Time: at.Add(simclock.Micros(25)), Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Value: 1500},
		{Time: at.Add(simclock.Micros(25)), Port: 1, Dir: asic.RX, Kind: asic.KindBytes, Missed: 2, Value: 64},
	}}
	buf.Reset()
	w = NewWriter(&buf)
	for _, b := range []*Batch{binned, plain} {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	r = NewReader(&buf)
	r.SetReuse(true)
	for _, want := range []*Batch{binned, plain} {
		got, err := r.ReadBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Samples, got.Samples) {
			t.Fatalf("reused batch kept the previous batch's fields:\n in: %+v\nout: %+v", want.Samples, got.Samples)
		}
	}
}

// TestMBW3CompressesPollingStream is a sanity bound (the hard 4x gate
// lives in the core bench artifact): on a steady polling stream the
// columnar deltas must beat the row format severalfold.
func TestMBW3CompressesPollingStream(t *testing.T) {
	batches := pollStream(4, 100, 0)
	var legacy, columnar int
	enc := newMBW3Codec()
	for _, b := range batches {
		legacy += EncodedSize(b)
		frame, err := enc.AppendBatch(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		columnar += len(frame)
	}
	ratio := float64(legacy) / float64(columnar)
	t.Logf("legacy %d B, mbw3 %d B (%.2fx)", legacy, columnar, ratio)
	if ratio < 2 {
		t.Fatalf("mbw3 only %.2fx smaller than the row format on a steady stream", ratio)
	}
}

// mbw3Payload extracts the payload of the single frame in data.
func mbw3Payload(t *testing.T, data []byte) []byte {
	t.Helper()
	return framePayloads(t, data)[0]
}

// dupSeriesPayload is a two-sample MBW3 payload whose series table lists
// one series twice, each slot referenced once: rack=1, epoch=0, count=2,
// nTimes=1, time dd=0, nSeries=2, table (port=1, dk=0) twice, then run-
// length columns — series slots 0, 1 (a literal of two deltas), time
// index 0 twice, missed 0 twice, and one value 0 per slot.
var dupSeriesPayload = []byte{1, 0, 2, 1, 0, 2, 1, 0, 1, 0, 0, 4, 0, 2, 0, 5, 0, 0, 5, 0, 0, 3, 0, 0, 3, 0}

// widthEdges is a 21-value column around mode m's escape: 0, 1, 2^w-2,
// 2^w-1 and 2^w in turn, w being the mode's width.
func widthEdges(m int) []uint64 {
	w := packWidths[m-1]
	edges := []uint64{0, 1, 1<<w - 2, 1<<w - 1, 1 << w}
	vals := make([]uint64, 21)
	for i := range vals {
		vals[i] = edges[i%len(edges)]
	}
	return vals
}

// packedPayload is a fresh one-series MBW3 payload of len(vals) samples,
// 25 µs apart, whose value column is vals packed in mode m whatever mode
// appendCol would choose; col is where that column, the payload's last,
// starts.
func packedPayload(m int, vals []uint64) (payload []byte, col int) {
	n := len(vals)
	p := binary.AppendUvarint([]byte{3, 1}, uint64(n))
	p = binary.AppendUvarint(p, uint64(n))
	p = binary.AppendUvarint(p, zig(25_000))
	for i := 1; i < n; i++ {
		p = append(p, 0)
	}
	p = append(p, 1, 1, 0) // one series: port 1, dk 0
	tidx := make([]uint64, n)
	for i := 1; i < n; i++ {
		tidx[i] = zig(1)
	}
	p = appendCol(p, make([]uint64, n), new(pairing))
	p = appendCol(p, tidx, new(pairing))
	p = appendCol(p, make([]uint64, n), new(pairing))
	s := colSizes(vals)
	return appendPacked(p, vals, m, s[m], new(pairing)), len(p)
}

// malformedPayloads are targeted corruptions: of valid, of hand-made
// payloads, of packed columns and of predicted columns and paired modes
// (predictedMutants). Every one must fail with ErrCorrupt.
func malformedPayloads(valid []byte) map[string][]byte {
	edit := func(p []byte, at int, f func(byte) byte) []byte {
		p = append([]byte(nil), p...)
		p[at] = f(p[at])
		return p
	}
	const width3, nibbles = 4, 1 // modes
	w3, w3col := packedPayload(width3, widthEdges(width3))
	nib, nibcol := packedPayload(nibbles, widthEdges(nibbles))
	nibTail := nibcol + 1 + packedLen(21, 4)
	bad := map[string][]byte{
		"trailing bytes": append(append([]byte(nil), valid...), 0),
		"truncated":      valid[:len(valid)-3],
		"empty":          nil,
		// rack=3, epoch=0, count over MaxBatchSamples.
		"absurd count": {3, 0, 0xff, 0xff, 0xff, 0xff, 0x7f},
		// rack=1, epoch=0, count=1, nTimes=1, time dd=0, nSeries=1, table
		// (port=1, dk=0), then a zero-count literal token in the series
		// column.
		"zero-count rle token":     {1, 0, 1, 1, 0, 1, 1, 0, 0},
		"series listed twice":      dupSeriesPayload,
		"mode past the last width": edit(w3, w3col, func(byte) byte { return byte(numModes) }),
		// 21 values of 3 bits leave the block's top bit spare.
		"spare bit set":            edit(w3, w3col+packedLen(21, 3), func(b byte) byte { return b | 0x80 }),
		"escape that fits inline":  edit(nib, nibTail, func(b byte) byte { return b - 1 }),
		"packed block cut short":   nib[:nibTail-1],
		"escape missing from tail": nib[:nibTail],
	}
	maps.Copy(bad, predictedMutants())
	return bad
}

// TestMBW3DecodeRejectsMalformed drives DecodePayload with targeted
// corruptions, on a fresh chain and on one the valid payloads before it
// have primed. Every one must fail with ErrCorrupt, and a failed decode
// changes nothing: it leaves no samples in the batch (rows are written
// while columns decode, over whatever the batch held), the chain's state,
// last table, gen and id as they were, and the codec usable — the next
// valid payload decodes exactly.
func TestMBW3DecodeRejectsMalformed(t *testing.T) {
	batches := pollStream(2, 20, 0)
	payloads := encodeStream(t, batches)
	cases := rotatedMutants(t)
	for name, bad := range malformedPayloads(payloads[1]) {
		cases[name] = malformedCase{batches, payloads, 1, bad}
	}
	for name, c := range cases {
		for _, next := range []int{0, c.prime} {
			dec := newMBW3Codec()
			var got Batch
			for _, p := range c.payloads[:next] {
				if err := dec.DecodePayload(Magic3, p, &got); err != nil {
					t.Fatal(err)
				}
			}
			before := chainCopy(dec.ch)
			got.Samples = append(got.Samples[:0], batches[1].Samples...)
			if err := dec.DecodePayload(Magic3, c.bad, &got); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s (primed %v): err = %v, want ErrCorrupt", name, next > 0, err)
			}
			if len(got.Samples) != 0 {
				t.Errorf("%s (primed %v): a failed decode left %d samples", name, next > 0, len(got.Samples))
			}
			if after := chainCopy(dec.ch); !reflect.DeepEqual(before, after) {
				t.Errorf("%s (primed %v): a failed decode changed the chain", name, next > 0)
			}
			if err := dec.DecodePayload(Magic3, c.payloads[next], &got); err != nil {
				t.Errorf("%s (primed %v): clean payload failed after rejected one: %v", name, next > 0, err)
			} else if !reflect.DeepEqual(c.stream[next].Samples, got.Samples) {
				t.Errorf("%s (primed %v): decode after rejection diverged", name, next > 0)
			}
		}
	}

	if err := newMBW3Codec().DecodePayload(Magic, payloads[0], &Batch{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mbw3 codec accepted a legacy magic")
	}
}

// chainCopy is ch with its own copy of the series table and index, for
// comparing a chain with itself later.
func chainCopy(ch *mbw3Chain) mbw3Chain {
	c := *ch
	c.states, c.idx = slices.Clone(ch.states), maps.Clone(ch.idx)
	return c
}

// TestPackedPayloadsDecode: a payload whose value column is packed in any
// mode decodes to its values, whichever mode the encoder would choose.
func TestPackedPayloadsDecode(t *testing.T) {
	for m := 1; m < numModes; m++ {
		vals := widthEdges(m)
		p, _ := packedPayload(m, vals)
		var b Batch
		if err := newMBW3Codec().DecodePayload(Magic3, p, &b); err != nil {
			t.Fatalf("mode %d: %v", m, err)
		}
		var v uint64
		var d int64
		for i, s := range b.Samples {
			d += unzig(vals[i])
			v += uint64(d)
			if s.Value != v {
				t.Fatalf("mode %d sample %d: value %d, want %d", m, i, s.Value, v)
			}
		}
	}
}

// TestMBW3StreamsAreIndependent runs two writers concurrently-interleaved
// in program order; each stream's chain must be self-contained.
func TestMBW3StreamsAreIndependent(t *testing.T) {
	var bufA, bufB bytes.Buffer
	wa, wb := NewWriter(&bufA), NewWriter(&bufB)
	as := pollStream(3, 20, 0)
	bs := pollStream(3, 20, 7)
	for i := range as {
		if err := wa.WriteBatch(as[i]); err != nil {
			t.Fatal(err)
		}
		if err := wb.WriteBatch(bs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ra, rb := NewReader(&bufA), NewReader(&bufB)
	for i := range as {
		ga, err := ra.ReadBatch()
		if err != nil {
			t.Fatal(err)
		}
		gb, err := rb.ReadBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBatch(as[i], ga) || !sameBatch(bs[i], gb) {
			t.Fatalf("stream independence violated at batch %d", i)
		}
	}
}

// TestWriterResetIsFresh: a Writer Reset onto a new stream emits exactly
// the bytes a new Writer would, whatever chain state, successor hints and
// buffers the stream before it left behind — the law that lets an archive
// keep one encoder across its segments.
func TestWriterResetIsFresh(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		before, after := genChain(rng), genChain(rng)
		var old, reset, fresh bytes.Buffer
		w := NewWriter(&old)
		for _, b := range before {
			if err := w.WriteBatch(b); err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return false
			}
		}
		w.Reset(&reset)
		f := NewWriter(&fresh)
		for i, b := range after {
			if err, ferr := w.WriteBatch(b), f.WriteBatch(b); err != nil || ferr != nil {
				t.Errorf("seed %d batch %d: %v / %v", seed, i, err, ferr)
				return false
			}
		}
		if !bytes.Equal(reset.Bytes(), fresh.Bytes()) {
			t.Errorf("seed %d: a Reset writer emits %d B, a new one %d B, and they differ", seed, reset.Len(), fresh.Len())
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
