package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// pollRack is one rack's endless polling stream, cut into batches at any
// sample: a poll visits the rack's series in a fixed order — one series
// alone, as the small-batch racks have, or up to a dozen — and now and
// then misses a series (the next sample of it carries Missed), skips one
// for good or takes in a series first seen mid-stream.
type pollRack struct {
	rack   uint32
	epoch  uint32
	series []*chainSeries
	order  []int // the poll's visiting order, into series
	next   int   // the next sample's place in order
	missed uint32
	t      simclock.Time
}

func newPollRack(rng *rand.Rand, rack uint32) *pollRack {
	kinds := []asic.CounterKind{asic.KindBytes, asic.KindPackets, asic.KindSizeBins, asic.KindBufferPeak}
	g := &pollRack{rack: rack, epoch: uint32(rng.Intn(3)), t: simclock.Epoch}
	want := 1 + rng.Intn(12)
	if rng.Intn(4) == 0 {
		want = 1
	}
	seen := map[seriesKey]bool{}
	for len(g.series) < want {
		s := &chainSeries{port: uint16(rng.Intn(8)), dir: asic.Direction(rng.Intn(2)), kind: kinds[rng.Intn(len(kinds))]}
		if k := (seriesKey{port: s.port, dk: byte(s.dir) | byte(s.kind)<<1}); !seen[k] {
			seen[k] = true
			g.series = append(g.series, s)
		}
	}
	g.order = rng.Perm(len(g.series) - len(g.series)/4) // a quarter join later
	return g
}

// batch cuts the rack's next batch: n samples from wherever the last one
// ended, under the same epoch or, now and then, a new one.
func (g *pollRack) batch(rng *rand.Rand, n int) *Batch {
	if rng.Intn(8) == 0 {
		g.epoch++
	}
	b := &Batch{Rack: g.rack, Epoch: g.epoch}
	for len(b.Samples) < n {
		if g.next == len(g.order) { // a new poll
			g.next = 0
			g.t = g.t.Add(simclock.Micros(25)).Add(simclock.Duration(rng.Intn(3)))
			if len(g.order) < len(g.series) && rng.Intn(20) == 0 {
				g.order = append(g.order, len(g.order))
			}
			if len(g.order) > 1 && rng.Intn(40) == 0 {
				g.order = append(g.order[:0:0], g.order[1:]...)
			}
		}
		si := g.order[g.next]
		g.next++
		if rng.Intn(30) == 0 { // missed: the poller skips it, and says so next time
			g.missed++
			continue
		}
		b.Samples = append(b.Samples, g.series[si].sample(rng, g.t, g.missed))
		g.missed = 0
	}
	return b
}

// TestMBW3NeverLongerThanParentLayout is the law of the predicted columns,
// paired modes and rotated tables, over generated polling streams of one
// to three racks (MBW4 once a second rack speaks), cut into batches
// mid-poll, with one-series racks, missed samples, new series and fresh
// epochs: every frame's payload is what refMBW3Encode writes on its rack's
// chain, never longer than the parent layout's — each column its own mode
// byte, the per-sample columns as deltas, every table listed — for the
// same batch and chain, and the stream decodes back to its batches
// exactly.
func TestMBW3NeverLongerThanParentLayout(t *testing.T) {
	predicted, paired, multi, rotated := 0, 0, 0, 0
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		racks := make([]*pollRack, 1+rng.Intn(3))
		refs := make(map[uint32][2]*refMBW3State)
		for i := range racks {
			racks[i] = newPollRack(rng, uint32(10+i))
			refs[racks[i].rack] = [2]*refMBW3State{newRefMBW3State(), {idx: map[seriesKey]int{}, parentLayout: true}}
		}
		var stream bytes.Buffer
		w := NewWriter(&stream)
		var batches []*Batch
		for nb := 1 + rng.Intn(8); nb > 0; nb-- {
			g := racks[rng.Intn(len(racks))]
			n := 1 + rng.Intn(40)
			if rng.Intn(6) == 0 {
				n = 100 + rng.Intn(400)
			}
			if rng.Intn(12) == 0 {
				n = 0
			}
			b := g.batch(rng, n)
			pre := stream.Len()
			if err := w.WriteBatch(b); err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return false
			}
			got := framePayloads(t, stream.Bytes()[pre:])[0]
			multi += int(b2u(binary.BigEndian.Uint32(stream.Bytes()[pre:]) == Magic4))
			ref := refs[b.Rack]
			var want, parent []byte
			for k, out := range []*[]byte{&want, &parent} {
				frame, err := refMBW3Encode(ref[k], nil, b)
				if err != nil {
					t.Fatal(err)
				}
				*out = framePayloads(t, frame)[0]
			}
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d batch %d (%d samples): payload differs from the reference (%d B vs %d B)", seed, len(batches), n, len(got), len(want))
				return false
			}
			if len(got) > len(parent) {
				t.Errorf("seed %d batch %d (%d samples): payload takes %d B, the parent layout %d B", seed, len(batches), n, len(got), len(parent))
				return false
			}
			if n > 0 {
				p := payloadReader{buf: got}
				p.uvarint()
				p.uvarint()
				p.uvarint()
				for nt := p.uvarint(); nt > 0; nt-- {
					p.uvarint()
				}
				ns := p.uvarint()
				if ns == 0 && len(ref[0].tkeys) > 1 {
					p.uvarint() // the rotation
				}
				rotated += int(b2u(ns == 0))
				for ; ns > 0; ns-- {
					p.uvarint()
					p.byte()
				}
				m := p.byte()
				predicted += int(b2u(int(m&15) == modePredicted))
				paired += int(b2u(m>>4 != 0))
			}
			batches = append(batches, b)
		}
		r := NewReader(bytes.NewReader(stream.Bytes()))
		for i, in := range batches {
			if got, err := r.ReadBatch(); err != nil || !sameBatch(in, got) {
				t.Errorf("seed %d batch %d: does not decode to its input (err %v)", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	t.Logf("payloads: %d predicted their series slots, %d paired their first mode byte, %d MBW4, %d rotated their table", predicted, paired, multi, rotated)
	if predicted == 0 || paired == 0 || multi == 0 || rotated == 0 {
		t.Errorf("%d payloads predicted their series slots, %d paired their first mode byte, %d were MBW4, %d rotated their table: the law is vacuous", predicted, paired, multi, rotated)
	}
}

// predictedPayload is a hand-made fresh payload of two series polled
// twice, both per-sample columns predicted and every mode byte but the
// last paired: rack=1, epoch=0, count=4; times 0 and 1 (second
// differences 0 and zig(1)); series (port 1, dk 0) and (port 2, dk 0);
// then columns — the series slot's mode byte carrying the time index's
// (both modePredicted), each a run of four zero residuals; missed, mode 0,
// its byte carrying the first value column's mode 0, four zeros; and the
// two value columns, two zeros each as a literal, the second under a mode
// byte of its own. It decodes to predictedBatch.
var predictedPayload = []byte{1, 0, 4, 2, 0, 2, 2, 1, 0, 2, 0,
	0xa9, 9, 0, 9, 0,
	0x10, 9, 0, 4, 0, 0,
	0x00, 4, 0, 0}

// predictedBatch is what predictedPayload decodes to.
var predictedBatch = &Batch{Rack: 1, Samples: []Sample{{Port: 1}, {Port: 2}, {Time: 1, Port: 1}, {Time: 1, Port: 2}}}

// predictedMutants are predictedPayload broken in each way the predicted
// columns and paired modes can be: every one must fail with ErrCorrupt.
func predictedMutants() map[string][]byte {
	p := predictedPayload
	const slotCol, timeCol, missedCol, lastCol = 11, 14, 16, 22 // where each starts
	splice := func(at, drop int, b ...byte) []byte {
		return append(append(append([]byte(nil), p[:at]...), b...), p[at+drop:]...)
	}
	return map[string][]byte{
		"missed column predicted":    splice(missedCol, 1, 0x19),
		"value column predicted":     splice(lastCol, 1, byte(modePredicted)),
		"slot outside the table":     splice(slotCol+1, 2, 8, 0, 0, 0, 4), // residuals 0, 0, 0, +2
		"time outside the time list": splice(timeCol, 2, 8, 0, 0, 0, 2),   // residuals 0, 0, 0, +1
		"high nibble above 10":       splice(slotCol, 1, 0xb9),
		"pairing on the last column": splice(lastCol, 1, 0x10),
		"paired column's own byte":   splice(timeCol, 0, byte(modePredicted)),
		"paired value column's byte": splice(missedCol+3, 0, 0),
	}
}

// sortedMutants is predictedMutants in name order, for seeding fuzzers.
func sortedMutants() [][]byte {
	m := predictedMutants()
	var names []string
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	var out [][]byte
	for _, name := range names {
		out = append(out, m[name])
	}
	return out
}

// TestPredictedPayloadDecodes: the hand-made predicted payload decodes to
// its batch, so that each of its mutants differs from a valid payload by
// the one defect its name says.
func TestPredictedPayloadDecodes(t *testing.T) {
	var b Batch
	if err := newMBW3Codec().DecodePayload(Magic3, predictedPayload, &b); err != nil {
		t.Fatal(err)
	}
	if !sameBatch(&b, predictedBatch) {
		t.Fatalf("decodes to %+v, want %+v", b.Samples, predictedBatch.Samples)
	}
}
