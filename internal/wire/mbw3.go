package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// Magic3 identifies an MBW3 columnar delta batch.
const Magic3 uint32 = 0x4d425733 // "MBW3"

// MaxBatchSamples bounds the per-batch record count an MBW3 decoder will
// accept. Run-length tokens decouple record count from payload bytes, so
// the legacy "count <= payload length" check no longer bounds allocation;
// this cap does. Encoders enforce it too, so every encodable batch is
// decodable.
const MaxBatchSamples = 1 << 22

// zig and unzig are the zigzag mapping varints use for signed deltas.
func zig(v int64) uint64   { return uint64(v)<<1 ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// rleMinRun is the shortest run of equal column values worth a dedicated
// run token; shorter runs ride inside literal tokens. Fixed so encoding
// is deterministic.
const rleMinRun = 3

// putUvarint writes v as a uvarint at p[i:] and returns the index after it.
// Callers size p beforehand; most column values take the one-byte exit.
func putUvarint(p []byte, i int, v uint64) int {
	for v >= 0x80 {
		p[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	p[i] = byte(v)
	return i + 1
}

// colSizer accumulates, run by run, the exact sizes a column would have in
// its two encodings, without encoding it. ne is the nibble encoding: half
// a byte per value, plus a varint in the overflow tail for each value >=
// 15. rle is the run-length encoding, a stream of uvarint tokens t with
// count t>>1 (>= 1): t&1 == 1 is a run (one uvarint value follows,
// repeated count times), t&1 == 0 a literal (count uvarint values
// follow). Runs of rleMinRun or more equal values become run tokens;
// everything between two such runs is one literal token, whose pending
// length is lit.
type colSizer struct{ ne, rle, lit int }

// run accounts for a maximal run of r values v.
func (z *colSizer) run(v uint64, r int) {
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
	z.closeLiteral()
	z.rle += uvarintLen(uint64(r)<<1|1) + l
}

func (z *colSizer) closeLiteral() {
	if z.lit > 0 {
		z.rle += uvarintLen(uint64(z.lit) << 1)
		z.lit = 0
	}
}

// colSizes measures vals for both encodings. Columns of 64 values or more
// are walked run by run. Shorter ones — a series' share of a batch is a
// few dozen values, and there are hundreds of such columns in one — are
// measured without a data-dependent branch per value: one pass folds the
// column into bit masks (bit i describes vals[i]) and the sizes are
// population counts, every token header being one byte at that length.
func colSizes(vals []uint64) (ne, rle int) {
	n := len(vals)
	if n >= 64 {
		z := colSizer{ne: (n + 1) / 2}
		for i := 0; i < n; {
			v := vals[i]
			j := i + 1
			for j < n && vals[j] == v {
				j++
			}
			z.run(v, j-i)
			i = j
		}
		z.closeLiteral()
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

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// appendRLE emits vals as a mode 0 column: the mode byte, then the token
// stream colSizes measured. size is its rle result, so the destination is
// grown once and written in place.
func appendRLE(dst []byte, vals []uint64, size int) []byte {
	at := len(dst) + 1
	dst = growBytes(dst, 1+size)
	dst[at-1] = 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		if j-i >= rleMinRun {
			at = putUvarint(dst, at, uint64(j-i)<<1|1)
			at = putUvarint(dst, at, vals[i])
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
		at = putUvarint(dst, at, uint64(i-start)<<1)
		for ; start < i; start++ {
			at = putUvarint(dst, at, vals[start])
		}
	}
	return dst
}

// rleRead appends exactly want decoded values to dst. Malformed tokens
// (zero counts, counts past want) set r.err.
func rleRead(r *payloadReader, dst []uint64, want int) []uint64 {
	for len(dst) < want {
		tok := r.uvarint()
		if r.err != nil {
			return dst
		}
		cnt := tok >> 1
		if cnt == 0 || cnt > uint64(want-len(dst)) {
			r.err = ErrCorrupt
			return dst
		}
		if tok&1 == 1 {
			v := r.uvarint()
			for k := uint64(0); k < cnt; k++ {
				dst = append(dst, v)
			}
		} else {
			for k := uint64(0); k < cnt; k++ {
				dst = append(dst, r.uvarint())
			}
		}
	}
	return dst
}

// appendCol emits one value column: a mode byte, then the cheaper of two
// encodings. Mode 0 is the varint RLE stream; mode 1 packs each value
// into a nibble (low nibble first), with values >= 15 escaping as nibble
// 15 plus a varint in an overflow tail after the packed block. Counter
// columns are delta-of-delta chains whose values cluster just above
// zero — too scattered for runs, but almost always under 4 bits — so
// mode 1 halves them; index and missed columns collapse into runs and
// keep mode 0.
//
// The choice is made from colSizes' sizes and only the winner is encoded.
// Mode 1 wins iff it is strictly smaller; a tie goes to mode 0 — the rule
// the format's first encoder fixed, kept so bytes never change.
func appendCol(dst []byte, vals []uint64) []byte {
	ne, rle := colSizes(vals)
	if ne >= rle {
		return appendRLE(dst, vals, rle)
	}
	return appendNibbles(dst, vals, ne)
}

// appendNibbles emits vals as a mode 1 column: the mode byte, then the
// block colSizes measured at ne bytes — the packed nibbles and, filled
// along with them, the overflow tail.
func appendNibbles(dst []byte, vals []uint64, ne int) []byte {
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

// colRun is a maximal run of n equal values v.
type colRun struct {
	v uint64
	n int
}

// runCol builds one of the three per-sample columns (series slot, time
// index, missed) as runs: they hold one value for whole polls, so the
// encoder tracks the open run while it walks the samples, and sizes and
// emits the column run by run, never value by value.
type runCol struct {
	runs []colRun
	at   int // first sample of the open run
}

func (r *runCol) reset() { r.runs, r.at = r.runs[:0], 0 }

// close ends the open run, of value v, before sample j, which opens the
// next. It is off the per-sample path: the caller compares, and calls
// only when the value turns.
//
//go:noinline
func (r *runCol) close(v uint64, j int) {
	r.runs = append(r.runs, colRun{v: v, n: j - r.at})
	r.at = j
}

// appendRunCol is appendCol for a column of n values held as runs: same
// sizes, same choice, same bytes. scratch expands the runs on the rare
// occasion that mode 1 wins.
func appendRunCol(dst []byte, runs []colRun, n int, scratch *[]uint64) []byte {
	z := colSizer{ne: (n + 1) / 2}
	for _, r := range runs {
		z.run(r.v, r.n)
	}
	z.closeLiteral()
	if z.ne < z.rle {
		vals := (*scratch)[:0]
		for _, r := range runs {
			for k := 0; k < r.n; k++ {
				vals = append(vals, r.v)
			}
		}
		*scratch = vals
		return appendNibbles(dst, vals, z.ne)
	}
	at := len(dst) + 1
	dst = growBytes(dst, 1+z.rle)
	dst[at-1] = 0
	for i := 0; i < len(runs); {
		if runs[i].n >= rleMinRun {
			at = putUvarint(dst, at, uint64(runs[i].n)<<1|1)
			at = putUvarint(dst, at, runs[i].v)
			i++
			continue
		}
		start, lit := i, 0
		for ; i < len(runs) && runs[i].n < rleMinRun; i++ {
			lit += runs[i].n
		}
		at = putUvarint(dst, at, uint64(lit)<<1)
		for ; start < i; start++ {
			for k := 0; k < runs[start].n; k++ {
				at = putUvarint(dst, at, runs[start].v)
			}
		}
	}
	return dst
}

// colRead decodes one appendCol column of exactly want values.
func colRead(r *payloadReader, dst []uint64, want int) []uint64 {
	mode := r.byte()
	if r.err != nil {
		return dst
	}
	switch mode {
	case 0:
		return rleRead(r, dst, want)
	case 1:
		nb := (want + 1) / 2
		if len(r.buf) < nb {
			r.err = ErrCorrupt
			return dst
		}
		packed := r.buf[:nb]
		r.buf = r.buf[nb:]
		if want&1 == 1 && nb > 0 && packed[nb-1]>>4 != 0 {
			r.err = ErrCorrupt // padding nibble must be zero
			return dst
		}
		base := len(dst)
		for i := 0; i < want; i++ {
			dst = append(dst, uint64(packed[i>>1]>>(uint(i&1)*4)&0xf))
		}
		for i := 0; i < want; i++ {
			if dst[base+i] != 15 {
				continue
			}
			v := r.uvarint()
			if r.err != nil {
				return dst
			}
			if v < 15 {
				r.err = ErrCorrupt // would have been inline
				return dst
			}
			dst[base+i] = v
		}
		return dst
	default:
		r.err = ErrCorrupt
		return dst
	}
}

// seriesKey identifies one counter series within a stream: the port plus
// the packed direction/kind byte the row formats already use.
type seriesKey struct {
	port uint16
	dk   byte
}

// mbw3Series is one series of the stream. Its stream state is what deltas
// chain against: the last absolute value plus the last first-order delta,
// since value and bin columns are delta-of-delta chains (counters polled
// at a fixed interval move by near-constant increments, so second
// differences cluster at zero and collapse into runs).
type mbw3Series struct {
	// key is the idx key that maps to this entry. next is the encoder's
	// successor hint: the entry of the series that followed this one the
	// last time it was encoded.
	key  seriesKey
	next int32

	// The series' columns in the batch being encoded, valid iff stamp is
	// the codec's: its table slot, the count values filled of the cap
	// reserved at off in vals (and, for size bins, in each of NumSizeBins
	// columns cap apart from binoff in binvals; -1 without), and the chain
	// state those values run against — pending here until commit. The
	// encoder reads and writes these for every sample, so they sit with
	// key and next at the head of the struct.
	stamp    int
	slot     int32
	count    int32
	cap      int32
	off      int
	binoff   int
	run      uint64
	runD     int64
	runBins  [asic.NumSizeBins]uint64
	runBinsD [asic.NumSizeBins]int64

	// Stream state.
	value  uint64
	valueD int64
	bins   [asic.NumSizeBins]uint64
	binsD  [asic.NumSizeBins]int64

	// capHint is the cap to reserve next time: one more than the series'
	// count in the last batch written (polls straddle batch boundaries).
	capHint int32
}

// mbw3Codec implements the columnar delta format.
//
// Payload layout (all integers uvarints unless noted):
//
//	rack, epoch, nSamples
//	-- the rest only when nSamples > 0 --
//	nTimes, times            delta-of-delta zigzag chain, continued from
//	                         the previous batch (from zero on a fresh
//	                         stream or epoch change); consecutive equal
//	                         sample times are deduplicated
//	nSeries, series table    (port uvarint, dir|kind<<1 byte) per series,
//	                         in first-appearance order
//	seriesCol                RLE; per sample, table slot as a zigzag
//	                         delta chain — preserves exact sample order
//	timeIdxCol               RLE; per sample, index into times, same
//	                         delta chain encoding
//	missedCol                RLE; per sample, Missed verbatim
//	value/bins columns       per table slot in order: the series'
//	                         cumulative Values as zigzag delta-of-delta
//	                         chains (RLE), continued from the previous
//	                         batch; size-bin series append NumSizeBins
//	                         bin columns encoded the same way
//
// Delta chains make the codec stateful: the first batch of a stream (or
// the first after an epoch change) carries absolutes as deltas from zero,
// and every later batch only the movement since the previous one.
type mbw3Codec struct {
	// Stream state. idx maps a series key to its states entry, and
	// states[i].key is that key — the invariant the encoder's successor
	// hints are checked against.
	epochKnown bool
	epoch      uint32
	lastTime   int64
	lastDelta  int64
	idx        map[seriesKey]int
	states     []mbw3Series

	// Encoder: tail is the states entry of the last sample written, whose
	// successor hint predicts the next batch's first; stamp numbers the
	// batch being encoded.
	tail  int
	stamp int

	// Per-batch scratch, reused so steady-state encode and decode do not
	// allocate. The encoder uses vals and binvals as arenas: each series'
	// columns are a region reserved when the batch first meets the series,
	// valsTop and binTop marking what is taken.
	payload  []byte
	tkeys    []seriesKey
	counts   []int
	offs     []int
	cursor   []int
	sids     []int
	tidx     []int
	times    []int64
	col      []uint64
	vals     []uint64
	binvals  []uint64
	binoffs  []int
	runD     []int64
	runBinsD []int64
	missed   []uint64

	// Encoder-only scratch: the batch's series table as states entries in
	// slot order, and the per-sample columns as runs.
	slots     []int32
	sidCol    runCol
	tidxCol   runCol
	missedCol runCol
	valsTop   int
	binTop    int

	// Pending time-chain state and tail, applied by commit.
	pendFresh     bool
	pendLastTime  int64
	pendLastDelta int64
	pendTail      int
}

func newMBW3Codec() *mbw3Codec {
	return &mbw3Codec{idx: make(map[seriesKey]int)}
}

func (c *mbw3Codec) Reset() {
	c.epochKnown = false
	c.epoch = 0
	c.lastTime = 0
	c.lastDelta = 0
	clear(c.idx)
	c.states = c.states[:0]
}

// addSeries enters k into the stream state with zero chain state, which
// is indistinguishable from absent.
func (c *mbw3Codec) addSeries(k seriesKey) int {
	si := len(c.states)
	c.states = append(c.states, mbw3Series{key: k})
	c.idx[k] = si
	return si
}

func sampleDK(s *Sample) byte { return byte(s.Dir) | byte(s.Kind)<<1 }

func isSizeBins(dk byte) bool { return asic.CounterKind(dk>>1) == asic.KindSizeBins }

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

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

// growBytes extends s by n bytes of unspecified content, reallocating to
// at least double only when capacity runs out.
func growBytes(s []byte, n int) []byte {
	if cap(s)-len(s) < n {
		grown := make([]byte, len(s), max(2*cap(s), len(s)+n))
		copy(grown, s)
		s = grown
	}
	return s[:len(s)+n]
}

// reserve takes k values off the top of a column arena and returns where
// they start. An arena that runs out is reallocated — keeping what is
// taken — to at least double, and to no less than first: callers pass
// what a whole batch of the current size is likely to need, so a fresh
// codec sizes each arena once instead of doubling its way up.
func reserve(arena *[]uint64, top *int, k, first int) int {
	off := *top
	*top += k
	if *top > len(*arena) {
		grown := make([]uint64, max(*top, 2*len(*arena), first))
		copy(grown, (*arena)[:off])
		*arena = grown
	}
	return off
}

// resolveSeries is the grouping pass's miss path: the successor hint of
// prev did not name k's series, so find it in idx (entering it when the
// stream has not seen it) and repoint the hint. Hints are only ever a
// guess checked against states[i].key, so updating one for a batch that
// is sized but never written costs nothing but a later miss.
func (c *mbw3Codec) resolveSeries(k seriesKey, prev int) int {
	si, ok := c.idx[k]
	if !ok {
		si = c.addSeries(k)
	}
	if prev < len(c.states) {
		c.states[prev].next = int32(si)
	}
	return si
}

// Arena sizes a first batch of n samples is likely to need: every sample
// a value and, for about half of them, NumSizeBins bin values — plus the
// slack column capacities carry.
func valsFor(n int) int    { return n + n/2 }
func binvalsFor(n int) int { return 4 * n }

// openSlot gives series si, first met by the batch being encoded, the next
// table slot: empty columns of its hinted capacity — room for one value
// when the stream has no history of it — and running values that start
// from stream state (zero on a fresh epoch). n is the batch's sample count.
func (c *mbw3Codec) openSlot(si, n int) {
	st := &c.states[si]
	st.stamp = c.stamp
	st.slot = int32(len(c.slots))
	c.slots = append(c.slots, int32(si))
	st.count, st.cap = 0, max(st.capHint, 1)
	st.off = reserve(&c.vals, &c.valsTop, int(st.cap), valsFor(n))
	st.run, st.runD = st.value, st.valueD
	if c.pendFresh {
		st.run, st.runD = 0, 0
	}
	st.binoff = -1
	if isSizeBins(st.key.dk) {
		st.binoff = reserve(&c.binvals, &c.binTop, int(st.cap)*asic.NumSizeBins, binvalsFor(n))
		st.runBins, st.runBinsD = st.bins, st.binsD
		if c.pendFresh {
			st.runBins, st.runBinsD = [asic.NumSizeBins]uint64{}, [asic.NumSizeBins]int64{}
		}
	}
}

// growCols moves a series whose columns are full to larger regions: at
// least twice the capacity, and enough for an even share of the samples
// after j — by its second sample a new series knows how many series the
// batch's polls visit, so it moves once.
func (c *mbw3Codec) growCols(st *mbw3Series, j, n int) {
	oldCap := int(st.cap)
	newCap := oldCap + max(oldCap, (n-j)/len(c.slots)+2)
	off := reserve(&c.vals, &c.valsTop, newCap, valsFor(n))
	copy(c.vals[off:], c.vals[st.off:st.off+int(st.count)])
	st.off, st.cap = off, int32(newCap)
	if st.binoff < 0 {
		return
	}
	off = reserve(&c.binvals, &c.binTop, newCap*asic.NumSizeBins, binvalsFor(n))
	for k := 0; k < asic.NumSizeBins; k++ {
		copy(c.binvals[off+k*newCap:], c.binvals[st.binoff+k*oldCap:][:st.count])
	}
	st.binoff = off
}

// buildPayload encodes b into c.payload using (but not modifying) the
// stream state; commit applies the state advance afterwards. Splitting
// the two keeps EncodedSize and failed writes side-effect-free.
func (c *mbw3Codec) buildPayload(b *Batch) {
	fresh := !c.epochKnown || b.Epoch != c.epoch
	c.pendFresh = fresh
	c.pendLastTime, c.pendLastDelta = c.lastTime, c.lastDelta
	if fresh {
		c.pendLastTime, c.pendLastDelta = 0, 0
	}

	n := len(b.Samples)
	if cap(c.payload) == 0 {
		// A fresh codec sizes its tables once, from its first batch: a
		// delta-coded sample is a few bytes, and a batch cannot hold more
		// series than samples. 64 covers a poll of a rack's full counter
		// set; past that, append doubles as usual.
		c.payload = make([]byte, 0, 64+6*n)
		if len(c.states) == 0 {
			c.states = make([]mbw3Series, 0, min(n, 64))
		}
	}
	p := c.payload[:0]
	p = binary.AppendUvarint(p, uint64(b.Rack))
	p = binary.AppendUvarint(p, uint64(b.Epoch))
	p = binary.AppendUvarint(p, uint64(n))
	c.slots = c.slots[:0]
	c.stamp++
	if n == 0 {
		c.payload = p
		return
	}

	// One pass over the samples groups them into the batch series table
	// and the deduplicated time list, builds the three per-sample columns
	// as runs, and appends every value's second difference to its series'
	// column. A poll visits its series in a fixed cycle, so the series that
	// followed the previous sample's last time is almost always this
	// sample's: that successor hint is tried first and checked against the
	// entry's key — exactly what idx would answer — and idx is only
	// consulted on a miss. New series enter the stream map immediately
	// with zero state, which is indistinguishable from absent — so this
	// pass is safe even when the batch is never committed.
	//
	// The loop keeps in locals only what every sample touches; whatever
	// changes once a poll or less lives in c and behind calls, so the
	// per-sample path stays in registers.
	stamp := c.stamp
	c.vals, c.binvals = c.vals[:cap(c.vals)], c.binvals[:cap(c.binvals)]
	c.valsTop, c.binTop = 0, 0
	c.times = c.times[:0]
	c.sidCol.reset()
	c.tidxCol.reset()
	c.missedCol.reset()
	states := c.states
	prev, hint := c.tail, 0
	if prev < len(states) {
		hint = int(states[prev].next)
	}
	// The open run of each per-sample column. The first sample opens slot
	// 0 and time 0, so both delta chains start at 0.
	var sidV, tidxV uint64
	missedV := uint64(b.Samples[0].Missed)
	var prevSlot int32
	lastT := b.Samples[0].Time.Nanoseconds() - 1
	for j := range b.Samples {
		s := &b.Samples[j]
		dk := sampleDK(s)
		si := hint
		if si >= len(states) || states[si].key.port != s.Port || states[si].key.dk != dk {
			si = c.resolveSeries(seriesKey{port: s.Port, dk: dk}, prev)
			states = c.states
		}
		st := &states[si]
		prev, hint = si, int(st.next)
		if st.stamp != stamp {
			c.openSlot(si, n)
		}
		i := st.count
		if i == st.cap {
			c.growCols(st, j, n)
		}
		st.count = i + 1

		if sv := zig(int64(st.slot - prevSlot)); sv != sidV {
			c.sidCol.close(sidV, j)
			sidV = sv
		}
		prevSlot = st.slot
		var tv uint64
		if t := s.Time.Nanoseconds(); t != lastT {
			if j > 0 {
				tv = 2 // zig(+1)
			}
			c.times = append(c.times, t)
			lastT = t
		}
		if tv != tidxV {
			c.tidxCol.close(tidxV, j)
			tidxV = tv
		}
		if m := uint64(s.Missed); m != missedV {
			c.missedCol.close(missedV, j)
			missedV = m
		}

		d := int64(s.Value - st.run)
		c.vals[st.off+int(i)] = zig(d - st.runD)
		st.run, st.runD = s.Value, d
		if st.binoff >= 0 {
			at, stride := st.binoff+int(i), int(st.cap)
			for k := range st.runBins {
				bd := int64(s.Bins[k] - st.runBins[k])
				c.binvals[at] = zig(bd - st.runBinsD[k])
				at += stride
				st.runBins[k], st.runBinsD[k] = s.Bins[k], bd
			}
		}
	}
	c.sidCol.close(sidV, n)
	c.tidxCol.close(tidxV, n)
	c.missedCol.close(missedV, n)
	c.pendTail = prev

	// Emit: times, series table, then the columns.
	p = binary.AppendUvarint(p, uint64(len(c.times)))
	lt, ld := c.pendLastTime, c.pendLastDelta
	for _, t := range c.times {
		d := t - lt
		p = binary.AppendUvarint(p, zig(d-ld))
		ld, lt = d, t
	}
	c.pendLastTime, c.pendLastDelta = lt, ld
	p = binary.AppendUvarint(p, uint64(len(c.slots)))
	for _, si := range c.slots {
		p = binary.AppendUvarint(p, uint64(states[si].key.port))
		p = append(p, states[si].key.dk)
	}
	p = appendRunCol(p, c.sidCol.runs, n, &c.col)
	p = appendRunCol(p, c.tidxCol.runs, n, &c.col)
	p = appendRunCol(p, c.missedCol.runs, n, &c.col)
	for _, si := range c.slots {
		st := &states[si]
		p = appendCol(p, c.vals[st.off:][:st.count])
		if st.binoff >= 0 {
			for k := 0; k < asic.NumSizeBins; k++ {
				p = appendCol(p, c.binvals[st.binoff+k*int(st.cap):][:st.count])
			}
		}
	}
	c.payload = p
}

// commit advances the stream state to reflect the batch buildPayload just
// encoded.
func (c *mbw3Codec) commit(b *Batch) {
	for _, si := range c.slots {
		st := &c.states[si]
		st.value, st.valueD = st.run, st.runD
		if st.binoff >= 0 {
			st.bins, st.binsD = st.runBins, st.runBinsD
		}
		st.capHint = st.count + 1
	}
	if len(c.slots) > 0 {
		c.tail = c.pendTail
	}
	if c.pendFresh {
		// A fresh epoch restarts the stream with exactly this batch's
		// series. The others keep their entries but lose their chains:
		// zero state is indistinguishable from absent.
		for i := range c.states {
			if st := &c.states[i]; st.stamp != c.stamp {
				st.value, st.valueD = 0, 0
				st.bins, st.binsD = [asic.NumSizeBins]uint64{}, [asic.NumSizeBins]int64{}
			}
		}
	}
	c.epochKnown = true
	c.epoch = b.Epoch
	c.lastTime = c.pendLastTime
	c.lastDelta = c.pendLastDelta
}

// AppendBatch appends b's MBW3 frame to dst, chained onto the stream so
// far. Once the scratch is warm it allocates nothing per batch
// (TestMBW3SteadyEncodeAllocatesNothing).
func (c *mbw3Codec) AppendBatch(dst []byte, b *Batch) ([]byte, error) {
	if len(b.Samples) > MaxBatchSamples {
		return dst, fmt.Errorf("%w: %d samples (max %d)", ErrBatchTooLarge, len(b.Samples), MaxBatchSamples)
	}
	c.buildPayload(b)
	if len(c.payload) > MaxBatchPayload {
		return dst, fmt.Errorf("%w: %d byte payload (max %d)", ErrBatchTooLarge, len(c.payload), MaxBatchPayload)
	}
	c.commit(b)
	return appendFrame(dst, Magic3, c.payload), nil
}

func (c *mbw3Codec) EncodedSize(b *Batch) int {
	c.buildPayload(b)
	return 4 + uvarintLen(uint64(len(c.payload))) + len(c.payload) + 4
}

// DecodePayload decodes one MBW3 payload into b, continuing the stream's
// delta chain. Once the scratch is warm it allocates nothing per batch
// (TestMBW3DecodeAllocatesNothing).
func (c *mbw3Codec) DecodePayload(magic uint32, payload []byte, b *Batch) error {
	if magic != Magic3 {
		return fmt.Errorf("%w: magic %#x is not mbw3", ErrCorrupt, magic)
	}
	r := payloadReader{buf: payload}
	rack := r.uvarint()
	epoch := r.uvarint()
	count := r.uvarint()
	if r.err != nil || rack > 1<<32-1 || epoch > 1<<32-1 {
		return fmt.Errorf("%w: mbw3 header", ErrCorrupt)
	}
	if count > MaxBatchSamples {
		return fmt.Errorf("%w: record count %d exceeds limit", ErrCorrupt, count)
	}
	n := int(count)
	fresh := !c.epochKnown || uint32(epoch) != c.epoch
	b.Rack, b.Epoch = uint32(rack), uint32(epoch)
	b.Samples = b.Samples[:0]
	if n == 0 {
		if len(r.buf) != 0 {
			return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf))
		}
		if fresh {
			clear(c.idx)
			c.states = c.states[:0]
			c.lastTime, c.lastDelta = 0, 0
		}
		c.epochKnown, c.epoch = true, uint32(epoch)
		return nil
	}

	// Times.
	nTimes := r.uvarint()
	if r.err != nil || nTimes == 0 || nTimes > count {
		return fmt.Errorf("%w: time count", ErrCorrupt)
	}
	lt, ld := c.lastTime, c.lastDelta
	if fresh {
		lt, ld = 0, 0
	}
	c.times = c.times[:0]
	for i := uint64(0); i < nTimes; i++ {
		d := ld + unzig(r.uvarint())
		lt += d
		ld = d
		c.times = append(c.times, lt)
	}

	// Series table.
	nSeries := r.uvarint()
	if r.err != nil || nSeries == 0 || nSeries > count {
		return fmt.Errorf("%w: series count", ErrCorrupt)
	}
	c.tkeys = c.tkeys[:0]
	for i := uint64(0); i < nSeries; i++ {
		port := r.uvarint()
		dk := r.byte()
		if r.err != nil || port > 1<<16-1 {
			return fmt.Errorf("%w: series table", ErrCorrupt)
		}
		c.tkeys = append(c.tkeys, seriesKey{port: uint16(port), dk: dk})
	}

	// Per-sample columns: series slot, time index, missed.
	c.sids = growInt(c.sids, n)
	c.col = colRead(&r, c.col[:0], n)
	var prev int64
	for j, v := range c.col {
		prev += unzig(v)
		if prev < 0 || prev >= int64(nSeries) {
			return fmt.Errorf("%w: series index %d", ErrCorrupt, prev)
		}
		c.sids[j] = int(prev)
	}
	c.tidx = growInt(c.tidx, n)
	c.col = colRead(&r, c.col[:0], n)
	prev = 0
	for j, v := range c.col {
		prev += unzig(v)
		if prev < 0 || prev >= int64(nTimes) {
			return fmt.Errorf("%w: time index %d", ErrCorrupt, prev)
		}
		c.tidx[j] = int(prev)
	}
	c.missed = colRead(&r, c.missed[:0], n)
	if r.err != nil {
		return fmt.Errorf("%w: sample columns", ErrCorrupt)
	}
	for _, m := range c.missed {
		if m > 1<<32-1 {
			return fmt.Errorf("%w: missed count %d", ErrCorrupt, m)
		}
	}

	// Per-slot counts and offsets; every table entry must be referenced
	// (encoders never emit unused series).
	c.counts = growInt(c.counts, int(nSeries))
	for slot := range c.counts {
		c.counts[slot] = 0
	}
	for _, slot := range c.sids {
		c.counts[slot]++
	}
	c.offs = growInt(c.offs, int(nSeries))
	c.cursor = growInt(c.cursor, int(nSeries))
	c.binoffs = growInt(c.binoffs, int(nSeries))
	off, binoff := 0, 0
	for slot := range c.counts {
		if c.counts[slot] == 0 {
			return fmt.Errorf("%w: unreferenced series %d", ErrCorrupt, slot)
		}
		c.offs[slot] = off
		off += c.counts[slot]
		c.cursor[slot] = 0
		c.binoffs[slot] = -1
		if isSizeBins(c.tkeys[slot].dk) {
			c.binoffs[slot] = binoff
			binoff += c.counts[slot] * asic.NumSizeBins
		}
	}

	// Value (and bin) columns, reconstructed to absolutes against the
	// stream state; a series unseen this stream (or a fresh epoch)
	// chains from zero, which is how first batches carry absolutes.
	c.vals = growU64(c.vals, n)
	c.binvals = growU64(c.binvals, binoff)
	c.runD = growI64(c.runD, int(nSeries))
	c.runBinsD = growI64(c.runBinsD, int(nSeries)*asic.NumSizeBins)
	for slot := range c.tkeys {
		var base uint64
		var baseD int64
		var st *mbw3Series
		if si, ok := c.idx[c.tkeys[slot]]; ok && !fresh {
			st = &c.states[si]
			base, baseD = st.value, st.valueD
		}
		cnt := c.counts[slot]
		c.col = colRead(&r, c.col[:0], cnt)
		for i, v := range c.col {
			baseD += unzig(v)
			base += uint64(baseD)
			c.vals[c.offs[slot]+i] = base
		}
		c.runD[slot] = baseD
		if bo := c.binoffs[slot]; bo >= 0 {
			for k := 0; k < asic.NumSizeBins; k++ {
				var bbase uint64
				var bbaseD int64
				if st != nil {
					bbase, bbaseD = st.bins[k], st.binsD[k]
				}
				c.col = colRead(&r, c.col[:0], cnt)
				for i, v := range c.col {
					bbaseD += unzig(v)
					bbase += uint64(bbaseD)
					c.binvals[bo+k*cnt+i] = bbase
				}
				c.runBinsD[slot*asic.NumSizeBins+k] = bbaseD
			}
		}
	}
	if r.err != nil {
		return fmt.Errorf("%w: value columns", ErrCorrupt)
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf))
	}

	// Reassemble samples in their original order, each written in place.
	// A reused b.Samples still holds the previous batch, so every field is
	// assigned — Bins too, for series that carry none.
	if cap(b.Samples) < n {
		b.Samples = make([]Sample, n)
	}
	b.Samples = b.Samples[:n]
	for j := range b.Samples {
		slot := c.sids[j]
		k := c.tkeys[slot]
		i := c.cursor[slot]
		c.cursor[slot]++
		s := &b.Samples[j]
		s.Time = simclock.Time(c.times[c.tidx[j]])
		s.Port = k.port
		s.Dir = asic.Direction(k.dk & 1)
		s.Kind = asic.CounterKind(k.dk >> 1)
		s.Missed = uint32(c.missed[j])
		s.Value = c.vals[c.offs[slot]+i]
		if bo := c.binoffs[slot]; bo >= 0 {
			cnt := c.counts[slot]
			for kk := 0; kk < asic.NumSizeBins; kk++ {
				s.Bins[kk] = c.binvals[bo+kk*cnt+i]
			}
		} else {
			s.Bins = [asic.NumSizeBins]uint64{}
		}
	}

	// Commit stream state.
	if fresh {
		clear(c.idx)
		c.states = c.states[:0]
	}
	for slot, key := range c.tkeys {
		si, ok := c.idx[key]
		if !ok {
			si = c.addSeries(key)
		}
		st := &c.states[si]
		cnt := c.counts[slot]
		st.value = c.vals[c.offs[slot]+cnt-1]
		st.valueD = c.runD[slot]
		if bo := c.binoffs[slot]; bo >= 0 {
			for k := 0; k < asic.NumSizeBins; k++ {
				st.bins[k] = c.binvals[bo+k*cnt+cnt-1]
				st.binsD[k] = c.runBinsD[slot*asic.NumSizeBins+k]
			}
		}
	}
	c.epochKnown, c.epoch = true, uint32(epoch)
	c.lastTime, c.lastDelta = lt, ld
	return nil
}
