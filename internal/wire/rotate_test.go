package wire

import (
	"bytes"
	"errors"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// rotatedStream is twelve polls of one rack's five series, cut mid-poll
// into batches of 23, 18 and 19 samples, so that each batch after the
// first lists the table before it rotated by 3.
func rotatedStream() []*Batch {
	all := pollStream(1, 12, 0)[0].Samples
	var out []*Batch
	for _, cut := range [][2]int{{0, 23}, {23, 41}, {41, 60}} {
		out = append(out, &Batch{Rack: 3, Samples: all[cut[0]:cut[1]]})
	}
	return out
}

// oneSeriesStream is pollStream's first series alone, in two batches of
// 20 samples.
func oneSeriesStream() []*Batch {
	var all []Sample
	for _, s := range pollStream(1, 40, 0)[0].Samples {
		if s.Port == 1 && s.Dir == asic.TX && s.Kind == asic.KindBytes {
			all = append(all, s)
		}
	}
	return []*Batch{{Rack: 3, Samples: all[:20]}, {Rack: 3, Samples: all[20:]}}
}

// encodeStream returns the payloads one chain writes for stream.
func encodeStream(tb testing.TB, stream []*Batch) [][]byte {
	tb.Helper()
	enc := newMBW3Codec()
	var out [][]byte
	for _, b := range stream {
		frame, err := enc.AppendBatch(nil, b)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, framePayloads(tb, frame)[0])
	}
	return out
}

// tableAt is where payload p's series count sits: after the header and
// the time list.
func tableAt(p []byte) int {
	r := payloadReader{buf: p}
	r.uvarint() // rack
	r.uvarint() // epoch
	r.uvarint() // count
	for n := r.uvarint(); n > 0; n-- {
		r.uvarint()
	}
	return len(p) - len(r.buf)
}

// malformedCase is a payload every decoder must reject and the valid
// stream it is decoded into: alone on a fresh chain, and after the
// stream's first prime payloads; either way the stream's next payload
// must decode as if the rejected one had never come.
type malformedCase struct {
	stream   []*Batch
	payloads [][]byte
	prime    int
	bad      []byte
}

// framed is the case's primed run as one stream of MBW3 frames, the
// rejected payload last.
func (c malformedCase) framed() []byte {
	var out []byte
	for _, p := range c.payloads[:c.prime] {
		out = appendFrame(out, Magic3, p)
	}
	return appendFrame(out, Magic3, c.bad)
}

// rotatedMutants are rotated tables that no chain can resolve: one on a
// chain whose last payload was empty, one on a payload that decodes fresh
// (a new epoch, or a fresh chain), a rotation as long as the last table,
// and a rotation after a one-series table, which has none.
func rotatedMutants(tb testing.TB) map[string]malformedCase {
	tb.Helper()
	cut := rotatedStream()
	p := encodeStream(tb, cut)
	at := tableAt(p[1])
	if p[1][at] != 0 || p[1][at+1] != 3 {
		tb.Fatalf("the second payload's table is not the first's rotated by 3: % x", p[1][at:at+2])
	}
	gap := []*Batch{cut[0], {Rack: 3}, cut[1]}
	pg := encodeStream(tb, gap)
	if pg[2][tableAt(pg[2])] != 5 {
		tb.Fatal("a payload after an empty one does not list its table")
	}
	one := oneSeriesStream()
	po := encodeStream(tb, one)
	ato := tableAt(po[1])
	if po[1][ato] != 0 {
		tb.Fatal("the second one-series payload lists its table")
	}
	splice := func(p []byte, at, drop int, b ...byte) []byte {
		return append(append(append([]byte(nil), p[:at]...), b...), p[at+drop:]...)
	}
	return map[string]malformedCase{
		"rotated table after an empty payload": {gap, pg, 2, p[1]},
		"rotated table on a fresh payload":     {cut, p, 1, splice(p[1], 1, 1, 1)}, // epoch 0 → 1
		"rotation as long as the last table":   {cut, p, 1, splice(p[1], at+1, 1, 5)},
		"rotation after a one-series table":    {one, po, 1, splice(po[1], ato+1, 0, 0)},
	}
}

// foreignTable is a hand-made fresh payload whose table does not list its
// series in first appearance, as no encoder here writes but any may:
// rack=1, epoch=0, count=4; times 0 and 1; series (port 1, dk 0) and
// (port 2, dk 0); every column under a mode byte of its own, run-length —
// series slots 1, 0, 1, 0 and time indexes 0, 0, 1, 1 as literal zigzag
// deltas, missed a run of four zeros, and two zero values per series.
var foreignTable = []byte{1, 0, 4, 2, 0, 2, 2, 1, 0, 2, 0,
	0, 8, 2, 1, 2, 1,
	0, 8, 0, 0, 2, 0,
	0, 9, 0,
	0, 4, 0, 0,
	0, 4, 0, 0}

// foreignRotated follows foreignTable: the same polls at times 2 and 3,
// its table foreignTable's rotated by 1 — (port 2), (port 1) — so its
// series slots are 0, 1, 0, 1.
var foreignRotated = []byte{1, 0, 4, 2, 0, 0, 0, 1,
	0, 8, 0, 2, 1, 2,
	0, 8, 0, 0, 2, 0,
	0, 9, 0,
	0, 4, 0, 0,
	0, 4, 0, 0}

// TestPassThroughNeedsSameLastTable: a Writer passes a rotated table
// through only onto a chain whose last table is the reader's. Here the
// writer encodes the foreign batch — it already knows the epoch from an
// empty batch, so the fresh frame cannot pass — and its chain then holds
// the reader's epoch, time chain and series values, but the table in
// first-appearance order; the rotated frame after it must be encoded too,
// and the archive must decode to what the reader decoded.
func TestPassThroughNeedsSameLastTable(t *testing.T) {
	src := appendFrame(appendFrame(nil, Magic3, foreignTable), Magic3, foreignRotated)
	r := NewReader(bytes.NewReader(src))
	var archive bytes.Buffer
	w := NewWriter(&archive)
	want := []*Batch{{Rack: 1}}
	if err := w.WriteBatch(want[0]); err != nil {
		t.Fatal(err)
	}
	at := func(ns int64, port uint16) Sample { return Sample{Time: simclock.Time(ns), Port: port} }
	for i, polls := range [][]Sample{
		{at(0, 2), at(0, 1), at(1, 2), at(1, 1)},
		{at(2, 2), at(2, 1), at(3, 2), at(3, 1)},
	} {
		b, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("foreign frame %d: %v", i, err)
		}
		if !sameBatch(b, &Batch{Rack: 1, Samples: polls}) {
			t.Fatalf("foreign frame %d decodes to %+v", i, b.Samples)
		}
		want = append(want, &Batch{Rack: 1, Samples: polls})
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if f := w.Frames(); f.Passed != 0 {
		t.Errorf("%d frames passed through onto a chain whose last table is not the reader's", f.Passed)
	}
	back := NewReader(&archive)
	for i, b := range want {
		if got, err := back.ReadBatch(); err != nil || !sameBatch(got, b) {
			t.Fatalf("archive batch %d: %v, want %+v", i, err, b.Samples)
		}
	}
}

// TestSizedAndRefusedBatchesLeaveLastTable: only a written batch moves
// the last table. Between two batches of a stream cut mid-poll, a chain
// sizes a batch of another table, sizes and refuses an oversized one, and
// still writes the second batch as the first's table rotated — the frame
// a chain that saw neither writes.
func TestSizedAndRefusedBatchesLeaveLastTable(t *testing.T) {
	s := rotatedStream()
	enc, plain := newMBW3Codec(), newMBW3Codec()
	for _, c := range []*mbw3Codec{enc, plain} {
		if _, err := c.AppendBatch(nil, s[0]); err != nil {
			t.Fatal(err)
		}
	}
	enc.EncodedSize(oneSeriesStream()[0])
	enc.EncodedSize(oversizedBatch())
	if _, err := enc.AppendBatch(nil, oversizedBatch()); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: err = %v, want ErrBatchTooLarge", err)
	}
	got, err := enc.AppendBatch(nil, s[1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.AppendBatch(nil, s[1])
	if err != nil {
		t.Fatal(err)
	}
	if p := framePayloads(t, want)[0]; p[tableAt(p)] != 0 {
		t.Fatal("the second batch of the stream does not rotate the first's table")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("after sizing and refusing other batches the frame takes %d B, without %d B", len(got), len(want))
	}
}
