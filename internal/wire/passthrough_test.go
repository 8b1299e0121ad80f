package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// rackGen draws one rack's polling stream, batch by batch: a fixed pool
// of series, each batch polling all of it or, now and then, a subset, one
// to a few times. Subsets are what make a chain's state differ from the
// state of a chain that saw fewer batches.
type rackGen struct {
	rack uint32
	pool []*chainSeries
	t    simclock.Time
}

func newRackGen(rng *rand.Rand, rack uint32) *rackGen {
	kinds := []asic.CounterKind{asic.KindBytes, asic.KindPackets, asic.KindSizeBins, asic.KindBufferPeak}
	g := &rackGen{rack: rack, t: simclock.Epoch}
	seen := map[seriesKey]bool{}
	for want := 1 + rng.Intn(6); len(g.pool) < want; {
		s := &chainSeries{port: uint16(rng.Intn(4)), dir: asic.Direction(rng.Intn(2)), kind: kinds[rng.Intn(len(kinds))]}
		if k := (seriesKey{port: s.port, dk: byte(s.dir) | byte(s.kind)<<1}); !seen[k] {
			seen[k] = true
			g.pool = append(g.pool, s)
		}
	}
	return g
}

func (g *rackGen) batch(rng *rand.Rand, epoch uint32) *Batch {
	b := &Batch{Rack: g.rack, Epoch: epoch}
	if rng.Intn(12) == 0 {
		return b
	}
	polled := g.pool
	if rng.Intn(3) == 0 {
		polled = nil
		for _, s := range g.pool {
			if rng.Intn(2) == 0 {
				polled = append(polled, s)
			}
		}
	}
	for polls := 1 + rng.Intn(4); polls > 0; polls-- {
		if rng.Intn(5) != 0 { // consecutive polls may share a timestamp
			g.t = g.t.Add(simclock.Micros(25))
		}
		for _, s := range polled {
			b.Samples = append(b.Samples, s.sample(rng, g.t, 0))
		}
	}
	return b
}

// ptSource is one stream an archive takes batches from: its encoder
// writes into buf, and r decodes what it wrote, frame by frame.
type ptSource struct {
	racks []uint32
	epoch uint32
	write func(*Batch) error
	buf   bytes.Buffer
	r     *Reader
}

// newPTSource opens a stream over racks. kind 0 is an agent's, through a
// Writer; kind 1 a parent-written multi-rack stream, MBW3 on one chain
// throughout (refWriteBatch); kind 2 a Writer's multi-rack stream, MBW4
// once its second rack appears — an archive segment read back.
func newPTSource(rng *rand.Rand, racks []uint32, epoch uint32, kind int) *ptSource {
	s := &ptSource{racks: racks, epoch: epoch}
	s.r = NewReader(&s.buf)
	s.r.SetReuse(rng.Intn(2) == 0)
	if kind == 1 {
		c, out := newMBW3Codec(), []byte(nil)
		s.write = func(b *Batch) error { return refWriteBatch(c, &out, &s.buf, b) }
	} else {
		s.write = NewWriter(&s.buf).WriteBatch
	}
	return s
}

// emit draws the next batch of one of the source's racks and returns it
// as the source's reader decodes it.
func (s *ptSource) emit(t *testing.T, rng *rand.Rand, gens []*rackGen) *Batch {
	in := gens[s.racks[rng.Intn(len(s.racks))]].batch(rng, s.epoch)
	if err := s.write(in); err != nil {
		t.Fatal(err)
	}
	b, err := s.r.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBatch(in, b) {
		t.Fatal("a source does not decode to what it encoded")
	}
	return b
}

// ptCounts counts how a pass-through law's frames were written: every
// frame, and the received frames whose series table was the last one
// rotated — passed through, or encoded on a chain a segment roll reset.
type ptCounts struct {
	FrameCounts
	rotatedPassed, rotatedRolled int
}

// arrivedRotated reports whether a decoded batch arrived in a frame that
// sent its series table as a rotation.
func arrivedRotated(b *Batch) bool {
	if b.source() == nil || len(b.Samples) == 0 {
		return false
	}
	n, k := binary.Uvarint(b.rx.frame[4:])
	p := b.rx.frame[4+k:][:n]
	return p[tableAt(p)] == 0
}

// passThroughLaw drives one Writer and the reference writer with the same
// generated schedule and returns false, having reported, when their
// archives decode differently from each other or from what was written.
// The schedule interleaves racks across agent streams and multi-rack
// streams, MBW3 and MBW4; reconnects a rack under the same epoch or a
// new one; bumps an epoch on a live stream; drops decoded batches
// unwritten, as a gate would; writes batches built in process and copies
// of decoded ones; and rolls the segment (Writer.Reset). A received frame
// whose table is rotated must be re-encoded on a rack's first write after
// a roll.
func passThroughLaw(t *testing.T, seed int64, counts *ptCounts) bool {
	rng := rand.New(rand.NewSource(seed))
	gens := make([]*rackGen, 1+rng.Intn(4))
	var srcs []*ptSource
	epochs := make([]uint32, len(gens))
	for r := range gens {
		gens[r] = newRackGen(rng, uint32(r))
		epochs[r] = uint32(rng.Intn(2))
		srcs = append(srcs, newPTSource(rng, []uint32{uint32(r)}, epochs[r], 0))
	}

	var segs, refSegs []*bytes.Buffer
	var written [][]*Batch
	w := NewWriter(nil)
	ref, refBuf := newMBW3Codec(), []byte(nil)
	var inSegment map[uint32]bool // the racks written since the last roll
	roll := func() {
		segs, refSegs = append(segs, &bytes.Buffer{}), append(refSegs, &bytes.Buffer{})
		written = append(written, nil)
		w.Reset(segs[len(segs)-1])
		ref.Reset()
		inSegment = map[uint32]bool{}
	}
	roll()
	write := func(b *Batch) {
		// What the batch says, copied before either writer sees it.
		want := &Batch{Rack: b.Rack, Epoch: b.Epoch, Samples: append([]Sample(nil), b.Samples...)}
		written[len(written)-1] = append(written[len(written)-1], want)
		rotated, passed := arrivedRotated(b), w.Frames().Passed
		if err := w.WriteBatch(b); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		switch {
		case rotated && !inSegment[b.Rack] && w.Frames().Passed != passed:
			t.Fatalf("seed %d: a rotated table passed through onto a chain a roll had reset", seed)
		case rotated && !inSegment[b.Rack]:
			counts.rotatedRolled++
		case rotated && w.Frames().Passed != passed:
			counts.rotatedPassed++
		}
		inSegment[b.Rack] = true
		if err := refWriteBatch(ref, &refBuf, refSegs[len(refSegs)-1], b); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
	}

	for steps := 10 + rng.Intn(80); steps > 0; steps-- {
		switch x := rng.Intn(100); {
		case x < 5:
			roll()
		case x < 15: // a rack's agent reconnects; its old stream may linger
			r := rng.Intn(len(gens))
			if rng.Intn(2) == 0 {
				epochs[r]++ // a restart
			}
			for i, s := range srcs {
				if len(s.racks) == 1 && s.racks[0] == uint32(r) && rng.Intn(3) != 0 {
					srcs = append(srcs[:i], srcs[i+1:]...)
					break
				}
			}
			srcs = append(srcs, newPTSource(rng, []uint32{uint32(r)}, epochs[r], 0))
		case x < 18: // a new stream carrying several racks
			var racks []uint32
			for _, r := range rng.Perm(len(gens))[:1+rng.Intn(len(gens))] {
				racks = append(racks, uint32(r))
			}
			srcs = append(srcs, newPTSource(rng, racks, uint32(rng.Intn(3)), 1+rng.Intn(2)))
		case x < 21: // an epoch bump on a live stream
			srcs[rng.Intn(len(srcs))].epoch++
		case x < 25: // a batch built in process
			r := rng.Intn(len(gens))
			write(gens[r].batch(rng, epochs[r]))
		default:
			s := srcs[rng.Intn(len(srcs))]
			b := s.emit(t, rng, gens)
			switch rng.Intn(10) {
			case 0: // dropped unwritten, as a gate would
			case 1:
				cp := *b
				write(&cp)
			default:
				write(b)
			}
		}
	}

	f := w.Frames()
	counts.Passed += f.Passed
	counts.Encoded += f.Encoded
	for i := range segs {
		got, refGot := NewReader(segs[i]), NewReader(refSegs[i])
		for j, want := range written[i] {
			b, err := got.ReadBatch()
			if err != nil || !sameBatch(want, b) {
				t.Errorf("seed %d segment %d batch %d: the pass-through archive decodes to something else (err %v)", seed, i, j, err)
				return false
			}
			rb, err := refGot.ReadBatch()
			if err != nil || !sameBatch(rb, b) {
				t.Errorf("seed %d segment %d batch %d: the reference archive decodes differently (err %v)", seed, i, j, err)
				return false
			}
		}
		if segs[i].Len() != 0 || refSegs[i].Len() != 0 {
			t.Errorf("seed %d segment %d: bytes left after its last batch", seed, i)
			return false
		}
	}
	return true
}

// TestPassThroughMatchesReference is the pass-through writer's contract:
// over generated multi-rack schedules, what it archives decodes, batch
// for batch, to what refWriteBatch's archive decodes to and to what was
// written — and both ways of writing a frame are exercised.
func TestPassThroughMatchesReference(t *testing.T) {
	var counts ptCounts
	check := func(seed int64) bool { return passThroughLaw(t, seed, &counts) }
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	t.Logf("frames passed %d, encoded %d; rotated tables passed %d, re-encoded after a roll %d",
		counts.Passed, counts.Encoded, counts.rotatedPassed, counts.rotatedRolled)
	if counts.Passed < counts.Encoded/4 || counts.Encoded < counts.Passed/20 {
		t.Errorf("frames passed %d, encoded %d: the schedules exercise one way of writing much more than the other", counts.Passed, counts.Encoded)
	}
	if counts.rotatedPassed == 0 || counts.rotatedRolled == 0 {
		t.Error("no rotated table was passed into a continuing chain, or none re-encoded after a roll")
	}
}
