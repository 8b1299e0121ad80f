package wire

// reference_test.go keeps the MBW3 encoder as it stood at 57f1ca2 — one
// map lookup per sample, every column trial-encoded into a scratch buffer
// — as refMBW3Encode, moved here verbatim (receiver and names prefixed
// with ref), with one substitution: since packed columns took every width
// of packWidths, it emits its columns through refPackedColAppend, which
// sizes every mode the plain way, where it called refColAppend, which
// tried run-length and nibbles. It is the oracle the production encoder is
// compared with, frame by frame, over generated batch chains; the format
// is persisted (archives on disk are MBW3), so "same bytes" is the whole
// contract.
//
// The column emitter that chose between those two modes by size —
// appendCol, appendNibbles and colSizes as they stood at d02cbc7 — is
// kept too, as refAppendCol: no column may come out longer than it did
// (TestPackedColumnsNeverLarger).
//
// It also keeps the MBW1/MBW2 row encoder as it stood at d36859d, the last
// commit that wrote those formats — wire.AppendBatch and appendPayload,
// moved here verbatim as refAppendLegacy and refAppendPayload. Nothing
// writes the row formats any more; the reference is what the decode-only
// side and the nominal EncodedSize are checked against.
//
// And it keeps refWriteBatch, the body Writer.WriteBatch had before a
// received frame could pass through: every batch encoded, on one chain
// per stream. TestPassThroughMatchesReference holds the Writer to it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// refMBW3State is the encode-side half of the parent mbw3Codec.
type refMBW3State struct {
	epochKnown bool
	epoch      uint32
	lastTime   int64
	lastDelta  int64
	idx        map[seriesKey]int
	states     []refMBW3Series

	stamp int

	payload  []byte
	tkeys    []seriesKey
	tstate   []int
	counts   []int
	offs     []int
	cursor   []int
	sids     []int
	tidx     []int
	times    []int64
	col      []uint64
	colbuf   []byte
	vals     []uint64
	binvals  []uint64
	binoffs  []int
	run      []uint64
	runD     []int64
	runBins  []uint64
	runBinsD []int64
	missed   []uint64

	pendFresh     bool
	pendLastTime  int64
	pendLastDelta int64

	// lastTable is the series table of the payload last committed.
	lastTable []seriesKey

	// parentLayout writes every column in the parent's layout — its own
	// mode byte, the per-sample columns as deltas — and every series table
	// in full, as the encoder before predicted columns, paired modes and
	// rotated tables did.
	parentLayout bool
}

func newRefMBW3State() *refMBW3State {
	return &refMBW3State{idx: make(map[seriesKey]int)}
}

// refMBW3Series is the per-series stream state deltas chain against: the
// last absolute value plus the last first-order delta, since value and
// bin columns are delta-of-delta chains (counters polled at a fixed
// interval move by near-constant increments, so second differences
// cluster at zero and collapse into runs).
type refMBW3Series struct {
	value  uint64
	valueD int64
	bins   [asic.NumSizeBins]uint64
	binsD  [asic.NumSizeBins]int64
	// slot/stamp resolve this series to its table slot within the batch
	// currently being encoded (valid iff stamp matches the codec's).
	slot  int
	stamp int
}

// growU64 and growI64 are growInt for uint64s and int64s, as the parent
// codec had them.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// refRLEAppend encodes vals as run-length tokens: each token is a uvarint t
// with count t>>1 (>= 1); t&1 == 1 is a run (one uvarint value follows,
// repeated count times), t&1 == 0 a literal (count uvarint values follow).
func refRLEAppend(dst []byte, vals []uint64) []byte {
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		if j-i >= rleMinRun {
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1|1)
			dst = binary.AppendUvarint(dst, vals[i])
			i = j
			continue
		}
		// Literal: extend until the next worthwhile run (or the end).
		start := i
		i = j
		for i < len(vals) {
			j = i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			if j-i >= rleMinRun {
				break
			}
			i = j
		}
		dst = binary.AppendUvarint(dst, uint64(i-start)<<1)
		for ; start < i; start++ {
			dst = binary.AppendUvarint(dst, vals[start])
		}
	}
	return dst
}

// refColAppend emits one value column: a mode byte, then the cheaper of two
// encodings. Mode 0 is the varint RLE stream; mode 1 packs each value
// into a nibble (low nibble first), with values >= 15 escaping as nibble
// 15 plus a varint in an overflow tail after the packed block. Counter
// columns are delta-of-delta chains whose values cluster just above
// zero — too scattered for runs, but almost always under 4 bits — so
// mode 1 halves them; index and missed columns collapse into runs and
// keep mode 0.
func (c *refMBW3State) refColAppend(dst []byte, vals []uint64) []byte {
	c.colbuf = refRLEAppend(c.colbuf[:0], vals)
	ne := (len(vals) + 1) / 2
	for _, v := range vals {
		if v >= 15 {
			ne += uvarintLen(v)
		}
	}
	if ne >= len(c.colbuf) {
		dst = append(dst, 0)
		return append(dst, c.colbuf...)
	}
	dst = append(dst, 1)
	var cur byte
	for i, v := range vals {
		nib := byte(v)
		if v >= 15 {
			nib = 15
		}
		if i&1 == 0 {
			cur = nib
		} else {
			dst = append(dst, cur|nib<<4)
		}
	}
	if len(vals)&1 == 1 {
		dst = append(dst, cur)
	}
	for _, v := range vals {
		if v >= 15 {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return dst
}

// refPackedColAppend is the column emitter by brute force: it sizes vals
// in every mode — run-length by encoding it with refRLEAppend, each width
// of refModeWidths by refPackedSize — and emits the shortest, a tie going
// to the earlier mode: run-length, then width 4, then the narrower width.
func (c *refMBW3State) refPackedColAppend(dst []byte, vals []uint64) []byte {
	c.colbuf = refRLEAppend(c.colbuf[:0], vals)
	mode, size := 0, len(c.colbuf)
	for m := 1; m < len(refModeWidths); m++ {
		if s := refPackedSize(vals, refModeWidths[m]); s < size {
			mode, size = m, s
		}
	}
	dst = append(dst, byte(mode))
	if mode == 0 {
		return append(dst, c.colbuf...)
	}
	return refPack(dst, vals, refModeWidths[mode])
}

// refPackedSize is what refPack writes for vals at w bits: a block of
// len(vals)*w bits, rounded up to whole bytes, and a varint for every
// value of 2^w-1 or more.
func refPackedSize(vals []uint64, w uint) int {
	size := (len(vals)*int(w) + 7) / 8
	var varint [binary.MaxVarintLen64]byte
	for _, v := range vals {
		if v >= 1<<w-1 {
			size += binary.PutUvarint(varint[:], v)
		}
	}
	return size
}

// refModeWidths is the bit width each column mode packs at, by mode byte;
// mode 0 is run-length.
var refModeWidths = []uint{0, 4, 1, 2, 3, 6, 8, 12, 16}

// refPack appends vals packed at w bits the plain way: min(v, 2^w-1)
// ORed into zeroed bytes at bit offset i*w, least significant bit first;
// then, for every value of 2^w-1 or more, its varint.
func refPack(dst []byte, vals []uint64, w uint) []byte {
	esc := uint64(1)<<w - 1
	base := len(dst)
	dst = append(dst, make([]byte, (len(vals)*int(w)+7)/8+2)...)
	for i, v := range vals {
		at := i * int(w)
		x := min(v, esc) << (at % 8)
		for k := 0; k < 3; k++ {
			dst[base+at/8+k] |= byte(x >> (8 * k))
		}
	}
	dst = dst[:len(dst)-2]
	for _, v := range vals {
		if v >= esc {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return dst
}

// refColSizer accumulates, run by run, the exact sizes a column would have in
// its two encodings, without encoding it. ne is the nibble encoding: half
// a byte per value, plus a varint in the overflow tail for each value >=
// 15. rle is the run-length encoding, a stream of uvarint tokens t with
// count t>>1 (>= 1): t&1 == 1 is a run (one uvarint value follows,
// repeated count times), t&1 == 0 a literal (count uvarint values
// follow). Runs of rleMinRun or more equal values become run tokens;
// everything between two such runs is one literal token, whose pending
// length is lit.
type refColSizer struct{ ne, rle, lit int }

// run accounts for a maximal run of r values v.
func (z *refColSizer) run(v uint64, r int) {
	l := 1
	if v >= 15 {
		if v >= 0x80 {
			l = uvarintLen(v)
		}
		z.ne += r * l
	}
	if r < rleMinRun {
		z.lit += r
		z.rle += r * l
		return
	}
	z.refCloseLiteral()
	z.rle += uvarintLen(uint64(r)<<1|1) + l
}

func (z *refColSizer) refCloseLiteral() {
	if z.lit > 0 {
		z.rle += uvarintLen(uint64(z.lit) << 1)
		z.lit = 0
	}
}

// refColSizes measures vals for both encodings. Columns of 64 values or more
// are walked run by run. Shorter ones — a series' share of a batch is a
// few dozen values, and there are hundreds of such columns in one — are
// measured without a data-dependent branch per value: one pass folds the
// column into bit masks (bit i describes vals[i]) and the sizes are
// population counts, every token header being one byte at that length.
func refColSizes(vals []uint64) (ne, rle int) {
	n := len(vals)
	if n >= 64 {
		z := refColSizer{ne: (n + 1) / 2}
		for i := 0; i < n; {
			v := vals[i]
			j := i + 1
			for j < n && vals[j] == v {
				j++
			}
			z.run(v, j-i)
			i = j
		}
		z.refCloseLiteral()
		return z.ne, z.rle
	}
	// eq: equals its successor; esc: escapes its nibble (>= 15).
	next := vals[n-1]
	var eq uint64
	esc, union := b2u(next >= 15), next
	for i := n - 2; i >= 0; i-- {
		v := vals[i]
		eq = eq<<1 | b2u(v == next)
		esc = esc<<1 | b2u(v >= 15)
		union |= v
		next = v
	}
	// A value is in a run of rleMinRun (3) or more iff it heads, centres or
	// ends three equal values; such a run is announced by the member whose
	// predecessor differs. Every other value is a literal, and a literal
	// token starts wherever a literal's predecessor is not one.
	three := eq & (eq >> 1)
	inRun := three | three<<1 | three<<2
	runStart := inRun &^ (eq << 1)
	lit := (1<<n - 1) &^ inRun
	litStart := lit &^ (lit << 1)
	ne = (n+1)/2 + bits.OnesCount64(esc)
	rle = 2*bits.OnesCount64(runStart) + bits.OnesCount64(litStart) + bits.OnesCount64(lit)
	if union < 0x80 {
		return ne, rle
	}
	// Some varint takes more than the one byte counted so far.
	for encoded := runStart | lit; esc != 0; esc &= esc - 1 {
		i := bits.TrailingZeros64(esc)
		extra := uvarintLen(vals[i]) - 1
		ne += extra
		if encoded>>i&1 == 1 {
			rle += extra
		}
	}
	return ne, rle
}

// refAppendCol emits one value column: a mode byte, then the cheaper of two
// encodings. Mode 0 is the varint RLE stream; mode 1 packs each value
// into a nibble (low nibble first), with values >= 15 escaping as nibble
// 15 plus a varint in an overflow tail after the packed block. Counter
// columns are delta-of-delta chains whose values cluster just above
// zero — too scattered for runs, but almost always under 4 bits — so
// mode 1 halves them; index and missed columns collapse into runs and
// keep mode 0.
//
// The choice is made from refColSizes' sizes and only the winner is encoded.
// Mode 1 wins iff it is strictly smaller; a tie goes to mode 0 — the rule
// the format's first encoder fixed, kept so bytes never change.
func refAppendCol(dst []byte, vals []uint64) []byte {
	ne, rle := refColSizes(vals)
	if ne >= rle {
		return appendRLE(dst, vals, rle, new(pairing))
	}
	return refAppendNibbles(dst, vals, ne)
}

// refAppendNibbles emits vals as a mode 1 column: the mode byte, then the
// block refColSizes measured at ne bytes — the packed nibbles and, filled
// along with them, the overflow tail.
func refAppendNibbles(dst []byte, vals []uint64, ne int) []byte {
	packed := len(dst) + 1
	dst = growBytes(dst, 1+ne)
	dst[packed-1] = 1
	tail := packed + (len(vals)+1)/2
	for i := 0; i < len(vals); i += 2 {
		lo := vals[i]
		if lo >= 15 {
			tail = putUvarint(dst, tail, lo)
			lo = 15
		}
		var hi uint64
		if i+1 < len(vals) {
			if hi = vals[i+1]; hi >= 15 {
				tail = putUvarint(dst, tail, hi)
				hi = 15
			}
		}
		dst[packed+i>>1] = byte(lo | hi<<4)
	}
	return dst
}

// refBuildPayload encodes b into c.payload using (but not modifying) the
// stream state; commit applies the state advance afterwards. Splitting
// the two keeps EncodedSize and failed writes side-effect-free.
func (c *refMBW3State) refBuildPayload(b *Batch) {
	fresh := !c.epochKnown || b.Epoch != c.epoch
	c.pendFresh = fresh
	c.pendLastTime, c.pendLastDelta = c.lastTime, c.lastDelta
	if fresh {
		c.pendLastTime, c.pendLastDelta = 0, 0
	}

	p := c.payload[:0]
	p = binary.AppendUvarint(p, uint64(b.Rack))
	p = binary.AppendUvarint(p, uint64(b.Epoch))
	p = binary.AppendUvarint(p, uint64(len(b.Samples)))
	n := len(b.Samples)
	if n == 0 {
		c.tkeys = c.tkeys[:0]
		c.payload = p
		return
	}

	// Group samples into the batch series table and the deduplicated
	// time list. New series enter the stream map immediately with zero
	// state, which is indistinguishable from absent — so this pass is
	// safe even when the batch is never committed.
	c.stamp++
	c.tkeys = c.tkeys[:0]
	c.tstate = c.tstate[:0]
	c.counts = c.counts[:0]
	c.sids = growInt(c.sids, n)
	c.tidx = growInt(c.tidx, n)
	c.times = c.times[:0]
	c.missed = growU64(c.missed, n)
	for j := range b.Samples {
		s := &b.Samples[j]
		k := seriesKey{port: s.Port, dk: sampleDK(s)}
		si, ok := c.idx[k]
		if !ok {
			si = len(c.states)
			c.states = append(c.states, refMBW3Series{})
			c.idx[k] = si
		}
		st := &c.states[si]
		if st.stamp != c.stamp {
			st.stamp = c.stamp
			st.slot = len(c.tkeys)
			c.tkeys = append(c.tkeys, k)
			c.tstate = append(c.tstate, si)
			c.counts = append(c.counts, 0)
		}
		c.sids[j] = st.slot
		c.counts[st.slot]++
		t := s.Time.Nanoseconds()
		if len(c.times) == 0 || t != c.times[len(c.times)-1] {
			c.times = append(c.times, t)
		}
		c.tidx[j] = len(c.times) - 1
		c.missed[j] = uint64(s.Missed)
	}

	// Per-slot running values start from stream state (zero on a fresh
	// epoch) and column offsets from the per-slot counts.
	nSeries := len(c.tkeys)
	c.offs = growInt(c.offs, nSeries)
	c.cursor = growInt(c.cursor, nSeries)
	c.binoffs = growInt(c.binoffs, nSeries)
	c.run = growU64(c.run, nSeries)
	c.runD = growI64(c.runD, nSeries)
	c.runBins = growU64(c.runBins, nSeries*asic.NumSizeBins)
	c.runBinsD = growI64(c.runBinsD, nSeries*asic.NumSizeBins)
	off, binoff := 0, 0
	for slot := range c.tkeys {
		c.offs[slot] = off
		off += c.counts[slot]
		c.cursor[slot] = 0
		st := &c.states[c.tstate[slot]]
		if fresh {
			c.run[slot], c.runD[slot] = 0, 0
		} else {
			c.run[slot], c.runD[slot] = st.value, st.valueD
		}
		c.binoffs[slot] = -1
		if isSizeBins(c.tkeys[slot].dk) {
			c.binoffs[slot] = binoff
			binoff += c.counts[slot] * asic.NumSizeBins
			for k := 0; k < asic.NumSizeBins; k++ {
				if fresh {
					c.runBins[slot*asic.NumSizeBins+k] = 0
					c.runBinsD[slot*asic.NumSizeBins+k] = 0
				} else {
					c.runBins[slot*asic.NumSizeBins+k] = st.bins[k]
					c.runBinsD[slot*asic.NumSizeBins+k] = st.binsD[k]
				}
			}
		}
	}
	c.vals = growU64(c.vals, n)
	c.binvals = growU64(c.binvals, binoff)

	// Second pass: fill the flat per-series delta columns in sample
	// order (each series sees its own samples in order regardless of
	// interleaving).
	for j := range b.Samples {
		s := &b.Samples[j]
		slot := c.sids[j]
		i := c.cursor[slot]
		c.cursor[slot]++
		d := int64(s.Value - c.run[slot])
		c.vals[c.offs[slot]+i] = zig(d - c.runD[slot])
		c.run[slot], c.runD[slot] = s.Value, d
		if bo := c.binoffs[slot]; bo >= 0 {
			cnt := c.counts[slot]
			for k := 0; k < asic.NumSizeBins; k++ {
				bd := int64(s.Bins[k] - c.runBins[slot*asic.NumSizeBins+k])
				c.binvals[bo+k*cnt+i] = zig(bd - c.runBinsD[slot*asic.NumSizeBins+k])
				c.runBins[slot*asic.NumSizeBins+k] = s.Bins[k]
				c.runBinsD[slot*asic.NumSizeBins+k] = bd
			}
		}
	}

	// Emit: times, series table, then the RLE columns.
	p = binary.AppendUvarint(p, uint64(len(c.times)))
	lt, ld := c.pendLastTime, c.pendLastDelta
	for _, t := range c.times {
		d := t - lt
		p = binary.AppendUvarint(p, zig(d-ld))
		ld, lt = d, t
	}
	c.pendLastTime, c.pendLastDelta = lt, ld
	if r := c.refRotation(); r >= 0 {
		p = append(p, 0)
		if nSeries > 1 {
			p = binary.AppendUvarint(p, uint64(r))
		}
	} else {
		p = binary.AppendUvarint(p, uint64(nSeries))
		for _, k := range c.tkeys {
			p = binary.AppendUvarint(p, uint64(k.port))
			p = append(p, k.dk)
		}
	}
	// Every column as its mode byte and body; the mode bytes pair last.
	var cols [][]byte
	c.col = c.col[:0]
	prev := 0
	for _, v := range c.sids {
		c.col = append(c.col, zig(int64(v-prev)))
		prev = v
	}
	cols = append(cols, c.refSampleCol(c.col, refSlotResiduals(c.sids[:n], nSeries)))
	c.col = c.col[:0]
	prev = 0
	for _, v := range c.tidx {
		c.col = append(c.col, zig(int64(v-prev)))
		prev = v
	}
	cols = append(cols, c.refSampleCol(c.col, refTimeResiduals(c.sids[:n], c.tidx[:n])))
	cols = append(cols, c.refPackedColAppend(nil, c.missed[:n]))
	for slot := range c.tkeys {
		cols = append(cols, c.refPackedColAppend(nil, c.vals[c.offs[slot]:c.offs[slot]+c.counts[slot]]))
		if bo := c.binoffs[slot]; bo >= 0 {
			cnt := c.counts[slot]
			for k := 0; k < asic.NumSizeBins; k++ {
				cols = append(cols, c.refPackedColAppend(nil, c.binvals[bo+k*cnt:bo+(k+1)*cnt]))
			}
		}
	}
	for i := 0; i < len(cols); i++ {
		if c.parentLayout || i+1 == len(cols) {
			p = append(p, cols[i]...)
			continue
		}
		// Column i+1's mode rides in the high nibble of column i's byte.
		p = append(p, cols[i][0]|(cols[i+1][0]+1)<<4)
		p = append(p, cols[i][1:]...)
		p = append(p, cols[i+1][1:]...)
		i++
	}
	c.payload = p
}

// refRotation is r when the batch's table is the last table rotated by r
// — slot i is lastTable[(i+r) mod n] — and may be written so, else -1:
// the first slot is looked for in the last table, then the rest compared.
func (c *refMBW3State) refRotation() int {
	n := len(c.tkeys)
	if c.parentLayout || c.pendFresh || len(c.lastTable) != n {
		return -1
	}
	r := slices.Index(c.lastTable, c.tkeys[0])
	if r < 0 {
		return -1
	}
	for i, k := range c.tkeys {
		if c.lastTable[(i+r)%n] != k {
			return -1
		}
	}
	return r
}

// refSampleCol is a per-sample column, its mode byte first: delta — the
// column as the parent wrote it — in refPackedColAppend's mode, unless the
// residuals, run-length coded, are strictly shorter.
func (c *refMBW3State) refSampleCol(delta, residuals []uint64) []byte {
	col := c.refPackedColAppend(nil, delta)
	if pred := refRLEAppend([]byte{byte(modePredicted)}, residuals); !c.parentLayout && len(pred) < len(col) {
		return pred
	}
	return col
}

// refSlotResiduals is the series-slot column in modePredicted, the plain
// way: each sample's slot against the one that followed the previous
// sample's slot the last time in the batch — searched for backwards — or,
// before that, the previous slot plus one, mod the series count; the
// first sample is predicted slot 0.
func refSlotResiduals(sids []int, nSeries int) []uint64 {
	out := make([]uint64, len(sids))
	for j, s := range sids {
		pred := 0
		if j > 0 {
			last := sids[j-1]
			pred = (last + 1) % nSeries
			for k := j - 2; k >= 0; k-- {
				if sids[k] == last {
					pred = sids[k+1]
					break
				}
			}
		}
		out[j] = zig(int64(s - pred))
	}
	return out
}

// refTimeResiduals is the time-index column in modePredicted, the plain
// way: each sample's step from the previous sample's time index (-1
// before the first) against the step the last sample of its slot took —
// searched for backwards — or, for a slot not seen yet, 1 for slot 0 and
// 0 for any other.
func refTimeResiduals(sids, tidx []int) []uint64 {
	stepAt := func(j int) int {
		if j == 0 {
			return tidx[0] + 1
		}
		return tidx[j] - tidx[j-1]
	}
	out := make([]uint64, len(sids))
	for j, s := range sids {
		pred := 0
		if s == 0 {
			pred = 1
		}
		for k := j - 1; k >= 0; k-- {
			if sids[k] == s {
				pred = stepAt(k)
				break
			}
		}
		out[j] = zig(int64(stepAt(j) - pred))
	}
	return out
}

// refCommit advances the stream state to reflect the batch buildPayload just
// encoded.
func (c *refMBW3State) refCommit(b *Batch) {
	if c.pendFresh {
		clear(c.idx)
		c.states = c.states[:0]
		for slot, k := range c.tkeys {
			c.idx[k] = len(c.states)
			c.states = append(c.states, refMBW3Series{})
			c.tstate[slot] = slot
		}
	}
	for slot := range c.tkeys {
		st := &c.states[c.tstate[slot]]
		st.value, st.valueD = c.run[slot], c.runD[slot]
		if c.binoffs[slot] >= 0 {
			copy(st.bins[:], c.runBins[slot*asic.NumSizeBins:(slot+1)*asic.NumSizeBins])
			copy(st.binsD[:], c.runBinsD[slot*asic.NumSizeBins:(slot+1)*asic.NumSizeBins])
		}
	}
	c.lastTable = append(c.lastTable[:0], c.tkeys...)
	c.epochKnown = true
	c.epoch = b.Epoch
	c.lastTime = c.pendLastTime
	c.lastDelta = c.pendLastDelta
}

// refMBW3Encode is the parent AppendBatch, its columns predicted and paired
// unless c.parentLayout.
func refMBW3Encode(c *refMBW3State, dst []byte, b *Batch) ([]byte, error) {
	if len(b.Samples) > MaxBatchSamples {
		return dst, fmt.Errorf("%w: %d samples (max %d)", ErrBatchTooLarge, len(b.Samples), MaxBatchSamples)
	}
	c.refBuildPayload(b)
	if len(c.payload) > MaxBatchPayload {
		return dst, fmt.Errorf("%w: %d byte payload (max %d)", ErrBatchTooLarge, len(c.payload), MaxBatchPayload)
	}
	c.refCommit(b)
	return appendFrame(dst, Magic3, c.payload), nil
}

// refMBW3EncodedSize is the parent EncodedSize.
func refMBW3EncodedSize(c *refMBW3State, b *Batch) int {
	c.refBuildPayload(b)
	return 4 + uvarintLen(uint64(len(c.payload))) + len(c.payload) + 4
}

var update = flag.Bool("update", false, "rewrite testdata/mbw3_chain_rotated.bin (the persisted-format pin; only ever deliberately)")

// refWriteBatch is the body Writer.WriteBatch had before frames passed
// through: every batch encoded, on one chain for the whole stream — c's —
// and framed as MBW3.
func refWriteBatch(c *mbw3Codec, buf *[]byte, dst io.Writer, b *Batch) error {
	out, err := c.AppendBatch((*buf)[:0], b)
	if err != nil {
		return err
	}
	*buf = out
	_, err = dst.Write(out)
	return err
}

// fixtureChain is the deterministic stream behind
// testdata/mbw3_chain_parent.bin: three pollStream batches at epoch 1 —
// with a second size-bin series that first appears in the middle of the
// stream, interleaved poll by poll — an empty batch, then an epoch bump.
func fixtureChain() []*Batch {
	chain := pollStream(3, 40, 1)
	var late Sample
	for bi, b := range chain[1:] {
		var out []Sample
		for j, s := range b.Samples {
			out = append(out, s)
			if j%5 != 4 {
				continue
			}
			late.Value += uint64(100 + j%7)
			for k := range late.Bins {
				late.Bins[k] += uint64(bi + j%3 + k)
			}
			s = Sample{Time: s.Time, Port: 7, Dir: asic.RX, Kind: asic.KindSizeBins, Missed: s.Missed, Value: late.Value, Bins: late.Bins}
			out = append(out, s)
		}
		b.Samples = out
	}
	chain = append(chain, &Batch{Rack: 3, Epoch: 1})
	return append(chain, pollStream(2, 25, 2)...)
}

// sameBatch compares what two batches say — rack, epoch and samples, nil
// Samples equal to empty — and not where either was decoded from.
func sameBatch(a, b *Batch) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rack == b.Rack && a.Epoch == b.Epoch && slices.Equal(a.Samples, b.Samples)
}

func sameBatches(a, b []*Batch) bool {
	return slices.EqualFunc(a, b, sameBatch)
}

// TestParentWrittenChainStaysByteExact pins the persisted shape across
// the layouts the encoder has written, each fixture from the same inputs.
// testdata/mbw3_chain_parent.bin was written by the 57f1ca2 encoder, whose
// columns were run-length or nibbles, testdata/mbw3_chain_packed.bin by
// the first encoder to pack at every width of packWidths, and
// testdata/mbw3_chain_predicted.bin by the first to predict per-sample
// columns and pair mode bytes; none is ever regenerated, and each must
// decode to its inputs. Their successor, testdata/mbw3_chain_rotated.bin,
// was written by the first encoder to send a repeated series table as a
// rotation of the last one, and today's must reproduce it byte for byte —
// MBW3 is what archives on disk hold, so a drifting encoder would fork the
// format. Each layout is smaller than the one before it.
func TestParentWrittenChainStaysByteExact(t *testing.T) {
	const path = "testdata/mbw3_chain_rotated.bin"
	chain := fixtureChain()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, b := range chain {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoder output (%d B) differs from the fixture (%d B)", buf.Len(), len(want))
	}
	parent, err := os.ReadFile("testdata/mbw3_chain_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	packed, err := os.ReadFile("testdata/mbw3_chain_packed.bin")
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := os.ReadFile("testdata/mbw3_chain_predicted.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(parent) || len(predicted) >= len(packed) || len(want) >= len(predicted) {
		t.Errorf("the fixture chain takes %d B with rotated tables, %d B predicted, %d B packed, %d B in the parent's columns: each must be smaller than the next",
			len(want), len(predicted), len(packed), len(parent))
	}
	for _, file := range [][]byte{parent, packed, predicted, want} {
		r := NewReader(bytes.NewReader(file))
		for i, in := range chain {
			got, err := r.ReadBatch()
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			if !sameBatch(in, got) {
				t.Fatalf("batch %d of a fixture does not decode to its input", i)
			}
		}
		if _, err := r.ReadBatch(); err != io.EOF {
			t.Fatalf("after a fixture: %v, want EOF", err)
		}
	}
}

// chainSeries is one generated counter series and the chain state its
// next second difference is drawn against.
type chainSeries struct {
	port   uint16
	dir    asic.Direction
	kind   asic.CounterKind
	val    uint64
	d      int64
	bins   [asic.NumSizeBins]uint64
	binsD  [asic.NumSizeBins]int64
	lastDD int64
	repeat int
}

// chainDDs are second differences whose zigzag images sit on the encoder's
// decision edges: 14|15 (nibble inline versus escape), 127|128 (one- versus
// two-byte varint), and zero (what run tokens are made of).
var chainDDs = []int64{0, 0, 0, 0, 1, -1, 7, -8, 8, 63, -64, 64, -65, 1 << 20, -(1 << 40)}

func (s *chainSeries) nextDD(rng *rand.Rand) int64 {
	if s.repeat > 0 { // runs of exactly 2 and 3 straddle rleMinRun
		s.repeat--
		return s.lastDD
	}
	dd := chainDDs[rng.Intn(len(chainDDs))]
	switch rng.Intn(8) {
	case 0:
		s.repeat = 1
	case 1:
		s.repeat = 2
	case 2:
		dd = int64(rng.Uint64())
	}
	s.lastDD = dd
	return dd
}

func (s *chainSeries) sample(rng *rand.Rand, t simclock.Time, missed uint32) Sample {
	s.d += s.nextDD(rng)
	s.val += uint64(s.d)
	out := Sample{Time: t, Port: s.port, Dir: s.dir, Kind: s.kind, Missed: missed, Value: s.val}
	if s.kind == asic.KindSizeBins {
		for k := range s.bins {
			s.binsD[k] += chainDDs[rng.Intn(len(chainDDs))]
			s.bins[k] += uint64(s.binsD[k])
		}
		out.Bins = s.bins
	}
	return out
}

// genChain draws 1–6 batches of a polling stream that misbehaves in every
// way the encoder's state machine has to survive: the visiting order
// changes between batches and within one, series join mid-stream, polls
// skip a series, epochs bump, batches come empty, column lengths are odd
// and now and then long.
func genChain(rng *rand.Rand) []*Batch {
	kinds := []asic.CounterKind{asic.KindBytes, asic.KindPackets, asic.KindSizeBins, asic.KindBufferPeak}
	seen := map[seriesKey]bool{}
	var pool []*chainSeries
	for len(pool) < 2+rng.Intn(8) {
		s := &chainSeries{port: uint16(rng.Intn(6)), dir: asic.Direction(rng.Intn(2)), kind: kinds[rng.Intn(len(kinds))]}
		k := seriesKey{port: s.port, dk: byte(s.dir) | byte(s.kind)<<1}
		if !seen[k] {
			seen[k] = true
			pool = append(pool, s)
		}
	}
	active := 1 + rng.Intn(len(pool))
	order := rng.Perm(active)
	epoch := uint32(rng.Intn(3))
	t := simclock.Epoch
	var chain []*Batch
	for nb := 1 + rng.Intn(6); nb > 0; nb-- {
		if rng.Intn(7) == 0 {
			epoch++
		}
		b := &Batch{Rack: uint32(rng.Intn(4)), Epoch: epoch}
		chain = append(chain, b)
		if rng.Intn(10) == 0 {
			continue // empty batch
		}
		if rng.Intn(3) == 0 {
			order = rng.Perm(active)
		}
		polls := 1 + rng.Intn(40)
		if rng.Intn(8) == 0 {
			polls = 60 + rng.Intn(80) // columns either side of 64 values, and two-byte token headers
		}
		for ; polls > 0; polls-- {
			if rng.Intn(4) != 0 { // consecutive polls may share a timestamp
				t = t.Add(simclock.Micros(25)).Add(simclock.Duration(rng.Intn(3)))
			}
			var missed uint32
			switch rng.Intn(20) {
			case 0:
				missed = 1
			case 1:
				missed = rng.Uint32()
			}
			if active < len(pool) && rng.Intn(30) == 0 {
				order = append(order, active) // a series first seen mid-stream
				active++
			}
			skip := -1
			if rng.Intn(10) == 0 {
				skip = rng.Intn(len(order))
			}
			for i, si := range order {
				if i != skip {
					b.Samples = append(b.Samples, pool[si].sample(rng, t, missed))
				}
			}
		}
	}
	return chain
}

// oversizedBatch overflows MaxBatchPayload: pseudo-random size-bin values
// are incompressible, and ~7 ten-byte varints per sample keep the batch
// small enough to build quickly. Built once and shared: it is 27 MB.
var oversizedBatch = sync.OnceValue(func() *Batch {
	b := &Batch{Rack: 1}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x | 1<<63
	}
	for i := 0; i < MaxBatchPayload/60+1; i++ {
		s := Sample{Time: simclock.Time(i), Port: 1, Kind: asic.KindSizeBins, Value: next()}
		for k := range s.Bins {
			s.Bins[k] = next()
		}
		b.Samples = append(b.Samples, s)
	}
	return b
})

// TestMBW3EncodeMatchesReference is the encoder's contract: over generated
// chains the production codec and refMBW3Encode produce the same frames,
// the same errors and the same EncodedSize at every step — including
// sizes asked for before the write, sizes asked for a batch that is never
// written, and a write that fails with ErrBatchTooLarge in mid-chain.
func TestMBW3EncodeMatchesReference(t *testing.T) {
	oversized := false
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		chain := genChain(rng)
		if !oversized && len(chain) >= 2 { // a failed write mid-chain, once a run: it is big
			oversized = true
			at := 1 + rng.Intn(len(chain)-1)
			chain = append(chain[:at:at], append([]*Batch{oversizedBatch()}, chain[at:]...)...)
		}
		enc, ref := newMBW3Codec(), newRefMBW3State()
		var stream []byte
		var written []*Batch
		for i, b := range chain {
			if rng.Intn(2) == 0 {
				if rng.Intn(3) == 0 { // size a batch that is not the next one written
					other := chain[rng.Intn(len(chain))]
					if got, want := enc.EncodedSize(other), refMBW3EncodedSize(ref, other); got != want {
						t.Errorf("seed %d batch %d: EncodedSize of a bystander = %d, reference %d", seed, i, got, want)
						return false
					}
				}
				if got, want := enc.EncodedSize(b), refMBW3EncodedSize(ref, b); got != want {
					t.Errorf("seed %d batch %d: EncodedSize = %d, reference %d", seed, i, got, want)
					return false
				}
			}
			pre := len(stream)
			var err error
			stream, err = enc.AppendBatch(stream, b)
			want, refErr := refMBW3Encode(ref, nil, b)
			if (err == nil) != (refErr == nil) || errors.Is(err, ErrBatchTooLarge) != errors.Is(refErr, ErrBatchTooLarge) {
				t.Errorf("seed %d batch %d: err = %v, reference %v", seed, i, err, refErr)
				return false
			}
			if !bytes.Equal(stream[pre:], want) {
				t.Errorf("seed %d batch %d (%d samples): frame differs from the reference (%d B vs %d B)",
					seed, i, len(b.Samples), len(stream)-pre, len(want))
				return false
			}
			if err == nil {
				written = append(written, b)
			}
		}
		r := NewReader(bytes.NewReader(stream))
		for i, in := range written {
			got, err := r.ReadBatch()
			if err != nil || !sameBatch(in, got) {
				t.Errorf("seed %d batch %d: does not decode to its input (err %v)", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if !oversized {
		t.Error("no chain took the oversized batch: the failed write went untested")
	}
}

// genColumn draws one value column: noise, runs either side of rleMinRun,
// and values on the escape and varint edges — 2^w-2, 2^w-1 and 2^w for
// every packed width — at a length either side of the 64 where colSizes
// changes method.
func genColumn(rng *rand.Rand) []uint64 {
	n := 1 + rng.Intn(40)
	switch rng.Intn(4) {
	case 0:
		n = 60 + rng.Intn(8)
	case 1:
		n = 64 + rng.Intn(200)
	}
	edge := []uint64{0, 0, 1, 127, 128, 129, 1<<14 - 1, 1 << 14, 1<<63 + 5, 1<<64 - 1}
	for _, w := range refModeWidths[1:] {
		edge = append(edge, 1<<w-2, 1<<w-1, 1<<w)
	}
	// A column mostly of values under 2^w, drawn per column, gives every
	// width its turn to win.
	small := uint64(1) << refModeWidths[rng.Intn(len(refModeWidths))]
	vals := make([]uint64, 0, n)
	for len(vals) < n {
		v := uint64(rng.Int63n(int64(small)))
		switch rng.Intn(4) {
		case 0:
			v = edge[rng.Intn(len(edge))]
		case 1:
			if rng.Intn(2) == 0 {
				v = rng.Uint64() >> uint(rng.Intn(64))
			}
		}
		run := 1
		switch rng.Intn(6) {
		case 0:
			run = 2
		case 1:
			run = 3
		case 2:
			run = 1 + rng.Intn(70)
		}
		for ; run > 0 && len(vals) < n; run-- {
			vals = append(vals, v)
		}
	}
	return vals
}

// runsOf is vals as appendRunCol takes them.
func runsOf(vals []uint64) []colRun {
	var col runCol
	for j := 1; j < len(vals); j++ {
		if vals[j] != vals[j-1] {
			col.close(vals[j-1], j)
		}
	}
	col.close(vals[len(vals)-1], len(vals))
	return col.runs
}

// TestColumnsMatchReference holds the column layer to the parent's bytes
// where the parent could have written them: a column for which appendCol
// chooses run-length or nibbles — the two modes refColAppend chose
// between, the tie rule keeping its order — comes out exactly as
// refColAppend wrote it; and appendRunCol, fed any column as runs, emits
// exactly what appendCol does.
func TestColumnsMatchReference(t *testing.T) {
	var ref refMBW3State
	var scratch []uint64
	parentModes := 0
	check := func(seed int64) bool {
		vals := genColumn(rand.New(rand.NewSource(seed)))
		got := appendCol([]byte{0xee}, vals, new(pairing))
		if got[0] != 0xee {
			t.Errorf("seed %d: appendCol wrote over its destination", seed)
			return false
		}
		if got = got[1:]; got[0] <= 1 {
			parentModes++
			if want := ref.refColAppend(nil, vals); !bytes.Equal(got, want) {
				t.Errorf("seed %d (%d values): appendCol chose mode %d, and differs from the reference", seed, len(vals), got[0])
				return false
			}
		}
		if run := appendRunCol(nil, runsOf(vals), nil, len(vals), &scratch, new(pairing)); !bytes.Equal(run, got) {
			t.Errorf("seed %d (%d values): appendRunCol differs from appendCol", seed, len(vals))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if parentModes == 0 {
		t.Error("no generated column took one of the parent's modes")
	}
}

// TestPackedColumnsNeverLarger is the law of the column chooser, over
// generated columns: colSizes gives every mode's exact size — the length
// of what refRLEAppend and refPack write, and refPackedSize says — and
// appendCol emits the chosen one at that size; the choice is
// refPackedColAppend's, the brute force with the same tie rule, byte for
// byte; the column decodes back to
// its values, consuming exactly its bytes; and it is never longer than
// refAppendCol, the parent's choice between run-length and nibbles, made
// it. Every mode must win some column.
func TestPackedColumnsNeverLarger(t *testing.T) {
	var ref refMBW3State
	var won [numModes]int
	check := func(seed int64) bool {
		vals := genColumn(rand.New(rand.NewSource(seed)))
		s := colSizes(vals)
		for m, w := range refModeWidths {
			want := len(refRLEAppend(nil, vals))
			if m > 0 {
				if want = len(refPack(nil, vals, w)); refPackedSize(vals, w) != want {
					t.Fatalf("seed %d: refPackedSize gives mode %d %d B, refPack writes %d", seed, m, refPackedSize(vals, w), want)
				}
			}
			if s[m] != want {
				t.Errorf("seed %d (%d values): colSizes gives mode %d %d B, its encoding takes %d", seed, len(vals), m, s[m], want)
				return false
			}
		}
		got := appendCol(nil, vals, new(pairing))
		m := bestMode(&s)
		won[m]++
		if int(got[0]) != m || len(got) != 1+s[m] {
			t.Errorf("seed %d (%d values): appendCol wrote mode %d in %d B, bestMode chose %d at %d B", seed, len(vals), got[0], len(got), m, 1+s[m])
			return false
		}
		if want := ref.refPackedColAppend(nil, vals); !bytes.Equal(got, want) {
			t.Errorf("seed %d (%d values): appendCol (mode %d, %d B) differs from the brute force (mode %d, %d B)", seed, len(vals), got[0], len(got), want[0], len(want))
			return false
		}
		r := payloadReader{buf: got}
		if back := colRead(&r, nil, len(vals), nil); r.err != nil || len(r.buf) != 0 || !slices.Equal(back, vals) {
			t.Errorf("seed %d (%d values, mode %d): decodes to %d values, %d bytes left, err %v", seed, len(vals), m, len(back), len(r.buf), r.err)
			return false
		}
		if parent := refAppendCol(nil, vals); len(got) > len(parent) {
			t.Errorf("seed %d (%d values): mode %d takes %d B, the parent's mode %d %d B", seed, len(vals), m, len(got), parent[0], len(parent))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	for m, n := range won {
		if n == 0 {
			t.Errorf("no generated column chose mode %d (width %d)", m, refModeWidths[m])
		}
	}
}

// TestMBW3SteadyEncodeAllocatesNothing is the zero-allocation gate on the
// agent's hot path: once a stream's scratch has reached its size, encoding
// a batch allocates nothing. A fresh codec sizes that scratch from its
// first batch rather than doubling its way up, so it must also allocate
// less than the reference encoder did on the same batch.
func TestMBW3SteadyEncodeAllocatesNothing(t *testing.T) {
	chain := pollStream(96, 40, 1)
	enc := newMBW3Codec()
	var frame []byte
	next := 0
	write := func() {
		var err error
		if frame, err = enc.AppendBatch(frame[:0], chain[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 16 {
		write()
	}
	if allocs := testing.AllocsPerRun(64, write); allocs != 0 {
		t.Errorf("steady-state encode allocates %.2f times per batch, want 0", allocs)
	}

	fresh := testing.AllocsPerRun(20, func() {
		if _, err := newMBW3Codec().AppendBatch(frame[:0], chain[0]); err != nil {
			t.Fatal(err)
		}
	})
	parent := testing.AllocsPerRun(20, func() {
		if _, err := refMBW3Encode(newRefMBW3State(), frame[:0], chain[0]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("first batch of a fresh codec: %.0f allocations (reference encoder: %.0f)", fresh, parent)
	if fresh >= parent {
		t.Errorf("a fresh codec allocates %.0f times on its first batch, the reference encoder %.0f", fresh, parent)
	}
}

// refAppendLegacy is the parent wire.AppendBatch: b in the MBW1/MBW2 row
// format, stateless, no size enforcement.
func refAppendLegacy(dst []byte, b *Batch) []byte {
	payload := refAppendPayload(nil, b)
	magic := Magic
	if b.Epoch != 0 {
		magic = Magic2
	}
	return appendFrame(dst, magic, payload)
}

func refAppendPayload(dst []byte, b *Batch) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.Rack))
	if b.Epoch != 0 {
		dst = binary.AppendUvarint(dst, uint64(b.Epoch))
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Samples)))
	var prevTime int64
	var prevValue uint64
	for i := range b.Samples {
		s := &b.Samples[i]
		dst = binary.AppendVarint(dst, s.Time.Nanoseconds()-prevTime)
		prevTime = s.Time.Nanoseconds()
		dst = binary.AppendUvarint(dst, uint64(s.Port))
		dst = append(dst, byte(s.Dir)|byte(s.Kind)<<1)
		dst = binary.AppendUvarint(dst, uint64(s.Missed))
		dst = binary.AppendVarint(dst, int64(s.Value-prevValue))
		prevValue = s.Value
		if s.Kind == asic.KindSizeBins {
			for _, v := range s.Bins {
				dst = binary.AppendUvarint(dst, v)
			}
		}
	}
	return dst
}

// legacyFixtureBatches are the batches d36859d's wire.AppendBatch framed
// into testdata/legacy_parent.bin: an epoch-0 batch (MBW1 magic, with a
// size-bins sample and a non-zero Missed), two epoch-carrying batches
// (MBW2 magic, the second regressing and wrapping its cumulative value),
// and an empty batch.
func legacyFixtureBatches() []*Batch {
	at := func(us int64) simclock.Time { return simclock.Epoch.Add(simclock.Micros(us)) }
	return []*Batch{
		{Rack: 7, Samples: []Sample{
			{Time: at(25), Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: 10_000},
			{Time: at(50), Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: 16_250},
			{Time: at(100), Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: 16_250, Missed: 1},
			{Time: at(125), Port: 9, Dir: asic.RX, Kind: asic.KindSizeBins,
				Bins: [asic.NumSizeBins]uint64{100, 20, 3, 0, 7, 999}},
			{Time: at(150), Kind: asic.KindBufferPeak, Value: 123456},
		}},
		{Rack: 7, Epoch: 3, Samples: []Sample{
			{Time: at(25), Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: 4_000},
			{Time: at(75), Port: 3, Dir: asic.TX, Kind: asic.KindBytes, Value: 9_500, Missed: 1},
			{Time: at(75), Port: 300, Dir: asic.RX, Kind: asic.KindDrops, Value: 2},
		}},
		{Rack: 1 << 20, Epoch: 1<<32 - 1, Samples: []Sample{
			{Time: at(500_000), Kind: asic.KindBufferPeak, Value: 1 << 40},
			{Time: at(500_025), Kind: asic.KindBufferPeak, Value: 10},
			{Time: at(500_050), Kind: asic.KindBufferPeak, Value: 1<<64 - 1},
			{Time: at(500_075), Kind: asic.KindBufferPeak, Value: 5},
		}},
		{Rack: 1},
	}
}

// TestParentWrittenLegacyStaysReadable pins the decode-only formats to
// bytes a legacy writer really produced: testdata/legacy_parent.bin was
// written by d36859d's wire.AppendBatch and is never regenerated — no
// code path can. Reader must decode it to the literal batches, and the
// reference encoder must reproduce it byte for byte, which is what makes
// refAppendLegacy a fair stand-in for a legacy writer everywhere else.
func TestParentWrittenLegacyStaysReadable(t *testing.T) {
	want, err := os.ReadFile("testdata/legacy_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	batches := legacyFixtureBatches()
	var re []byte
	for _, b := range batches {
		re = refAppendLegacy(re, b)
	}
	if !bytes.Equal(re, want) {
		t.Fatalf("refAppendLegacy output (%d B) differs from the parent-written fixture (%d B)", len(re), len(want))
	}
	r := NewReader(bytes.NewReader(want))
	for i, in := range batches {
		got, err := r.ReadBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !sameBatch(in, got) {
			t.Fatalf("batch %d of the fixture decoded to\n%+v, want\n%+v", i, got, in)
		}
	}
	if _, err := r.ReadBatch(); err != io.EOF {
		t.Fatalf("after the fixture: %v, want EOF", err)
	}
	// Epoch 0 travels under the MBW1 magic, any other under MBW2.
	var magics []uint32
	for rest := want; len(rest) > 0; {
		n, sz := binary.Uvarint(rest[4:])
		magics = append(magics, binary.BigEndian.Uint32(rest))
		rest = rest[4+sz+int(n)+4:]
	}
	if !reflect.DeepEqual(magics, []uint32{Magic, Magic2, Magic2, Magic}) {
		t.Fatalf("fixture framings = %#x, want MBW1, MBW2, MBW2, MBW1", magics)
	}
}
