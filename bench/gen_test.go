package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

const testDurMs = 20

func testStreams(t *testing.T, seed uint64, racks int, kind baseKind) []*stream {
	t.Helper()
	base, err := simulateBase(context.Background(), seed, racks, kind, testDurMs)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*stream, len(base))
	for r := range base {
		if len(base[r]) == 0 {
			t.Fatalf("rack %d simulated no samples", r)
		}
		streams[r] = newStream(base[r], testDurMs)
	}
	return streams
}

// Tiling must keep every cumulative series a valid monotonic counter with
// strictly increasing time across tile seams, and replay clear-on-read
// registers untouched.
func TestTilingKeepsSeriesMonotonic(t *testing.T) {
	s := testStreams(t, 3, 1, baseFullCounters)[0]
	n := len(s.base)
	out := make([]Sample, 3*n+n/2)
	c := cursor{s: s}
	c.fill(out[:n/3]) // an odd first chunk: fills must compose
	c.fill(out[n/3:])

	last := map[seriesID]Sample{}
	peaks := 0
	for i, got := range out {
		base := s.base[i%n]
		if got.Port != base.Port || got.Dir != base.Dir || got.Kind != base.Kind || got.Missed != base.Missed {
			t.Fatalf("sample %d: identity changed: %+v vs base %+v", i, got, base)
		}
		id := seriesID{got.Port, uint8(got.Dir), uint8(got.Kind)}
		if prev, ok := last[id]; ok {
			if got.Time <= prev.Time {
				t.Fatalf("sample %d (%v): time %v not after %v", i, id, got.Time, prev.Time)
			}
			if got.Kind != kindBufferPeak {
				if got.Value < prev.Value {
					t.Fatalf("sample %d (%v): value regressed %d → %d", i, id, prev.Value, got.Value)
				}
				for j := range got.Bins {
					if got.Bins[j] < prev.Bins[j] {
						t.Fatalf("sample %d (%v): bin %d regressed", i, id, j)
					}
				}
			}
		}
		last[id] = got
		if got.Kind == kindBufferPeak {
			peaks++
			if got.Value != base.Value || got.Bins != base.Bins {
				t.Fatalf("sample %d: buffer-peak register rebased: %d vs base %d", i, got.Value, base.Value)
			}
		}
		if i >= n && got.Kind == kindBytes && got.Value == base.Value && s.dv[i%n] != 0 {
			t.Fatalf("sample %d: tile %d byte counter was not rebased", i, i/n)
		}
	}
	if peaks == 0 {
		t.Fatal("base stream holds no buffer-peak samples; the register check is vacuous")
	}
}

// The program must accept the tiled stream whole: the epoch gate drops
// nothing and no utilization converter latches.
func TestTiledStreamIsAdmitted(t *testing.T) {
	streams := testStreams(t, 4, 2, baseFullCounters)
	figs, err := newFigures()
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	gate := newGate(func(b *Batch) { admitted++; figs.Handle(b) })
	b := &Batch{Epoch: 1, Samples: make([]Sample, 300)}
	const batches = 40
	for r, s := range streams {
		c := cursor{s: s}
		b.Rack = uint32(r)
		if tiles := batches * len(b.Samples) / len(s.base); tiles < 2 {
			t.Fatalf("only %d tiles: seams not exercised", tiles)
		}
		for i := 0; i < batches; i++ {
			c.fill(b.Samples)
			gate(b)
		}
	}
	if want := batches * len(streams); admitted != want {
		t.Fatalf("gate admitted %d of %d batches", admitted, want)
	}
	if n := latchedSeries(figs); n != 0 {
		t.Fatalf("%d series latched on the tiled stream", n)
	}
}

func encodeTiled(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for r, s := range testStreams(t, seed, 2, baseFullCounters) {
		cl, err := newClient(&buf, uint32(r), 256)
		if err != nil {
			t.Fatal(err)
		}
		c := cursor{s: s}
		scratch := make([]Sample, 256)
		for i := 0; i < 2*len(s.base)/256+3; i++ {
			c.fill(scratch)
			for j := range scratch {
				cl.Emit(scratch[j])
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The same seed must give byte-identical MBW3 streams; another seed must
// not.
func TestSameSeedSameBytes(t *testing.T) {
	a, b, c := encodeTiled(t, 7), encodeTiled(t, 7), encodeTiled(t, 8)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("seed 7 encoded %d and %d bytes that differ", len(a), len(b))
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 encoded identical streams: the seed does not reach the generator")
	}
}

// The emit loop's cost is precomputed: its state holds no map (so fill
// cannot do a map lookup per sample) and filling allocates nothing.
func TestFillIsPrecomputed(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(stream{}), reflect.TypeOf(cursor{})} {
		for i := 0; i < typ.NumField(); i++ {
			if k := typ.Field(i).Type.Kind(); k == reflect.Map || k == reflect.Func || k == reflect.Interface {
				t.Errorf("%s.%s is a %s: per-sample generator state must be plain arrays", typ.Name(), typ.Field(i).Name, k)
			}
		}
	}
	s := testStreams(t, 3, 1, baseFullCounters)[0]
	c := cursor{s: s}
	dst := make([]Sample, 512)
	if allocs := testing.AllocsPerRun(50, func() { c.fill(dst) }); allocs != 0 {
		t.Fatalf("fill allocates %.1f times per batch", allocs)
	}
}
