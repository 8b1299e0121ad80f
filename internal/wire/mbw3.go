package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// Magic3 identifies an MBW3 columnar delta batch.
const Magic3 uint32 = 0x4d425733 // "MBW3"

// Magic4 identifies an MBW3 payload whose deltas chain per rack: a stream
// that has carried a second rack frames every batch under it (see
// Writer).
const Magic4 uint32 = 0x4d425734 // "MBW4"

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

// packWidths are the widths of the packed column modes: mode m >= 1 packs
// at packWidths[m-1] bits, mode 0 is run-length. Mode 1 (nibbles) is the
// first encoder's; the rest follow in bestMode's tie order.
var packWidths = [...]uint{4, 1, 2, 3, 6, 8, 12, 16}

const numModes = 1 + len(packWidths)

// modePredicted is the mode of a per-sample column — the series slot's or
// the time index's, no other — written as run-length residuals against
// what the payload so far predicts (see predictors).
const modePredicted = numModes

// pairing says where the next column's mode m goes: at i > 0, into the
// high nibble of payload byte i-1, the column before's mode byte, as m+1;
// at 0, into a byte of its own, which the column after may share. A byte
// that pairs nothing keeps a zero high nibble, as the format's earlier
// encoders wrote every one.
type pairing int

// put writes column mode m.
func (pr *pairing) put(dst []byte, m int) []byte {
	if i := int(*pr); i > 0 {
		dst[i-1] |= byte(m+1) << 4
		*pr = 0
		return dst
	}
	*pr = pairing(len(dst) + 1)
	return append(dst, byte(m))
}

// A packed column stores v inline iff v < 2^w-1. escInc[v] has a one in
// byte m-1 for each mode m that escapes v < 128, and packedLanes[n] there
// mode m's packed size of n < 64 values: summed over a short column,
// escInc counts each mode's escapes, a byte per mode.
var escInc, packedLanes = func() (t [128]uint64, p [64]uint64) {
	for m, w := range packWidths {
		for v := range t {
			if uint64(v) >= 1<<w-1 {
				t[v] |= 1 << (8 * m)
			}
		}
		for n := range p {
			p[n] |= uint64(packedLen(n, w)) << (8 * m)
		}
	}
	return t, p
}()

func escLen(v uint64) int { return bits.Len64(v | (v + 1)) }

// packedLen is the size of n values packed at w bits, the tail aside.
func packedLen(n int, w uint) int { return (n*int(w) + 7) / 8 }

// colSizer accumulates, run by run, the exact sizes a column would take
// in every mode, without encoding it. rle is the run-length encoding, a
// stream of uvarint tokens t with count t>>1 (>= 1): t&1 == 1 is a run
// (one uvarint value follows, repeated count times), t&1 == 0 a literal
// (count uvarint values follow). Runs of rleMinRun or more equal values
// become run tokens; everything between two such runs is one literal
// token, whose pending length is lit. tail[L] sums the varints of escLen
// L (the last entry: L or more), held in the tail of every width below L.
type colSizer struct {
	rle, lit int
	tail     [17 + 1]int // 16 is the widest width
}

func (z *colSizer) addTail(v uint64, bytes int) { z.tail[min(escLen(v), len(z.tail)-1)] += bytes }

// run accounts for a maximal run of r values v.
func (z *colSizer) run(v uint64, r int) {
	l := uvarintLen(v)
	z.addTail(v, r*l)
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

// colSizes measures vals in every mode. Columns under 64 values — a
// series' share of a batch, hundreds of columns in one — are measured
// without a data-dependent branch per value: one pass folds the column
// into a bit mask (bit i: vals[i] equals its successor) and the escape
// counts, and the sizes are population counts and those counts, every
// varint taking a byte; longer varints are then visited one by one.
// Longer columns are walked run by run.
func colSizes(vals []uint64) (s [numModes]int) {
	n := len(vals)
	if n < 64 {
		next := vals[n-1]
		var eq uint64
		union, esc := next, escInc[next&127]
		for i := n - 2; i >= 0; i-- {
			v := vals[i]
			eq = eq<<1 | b2u(v == next)
			union |= v
			esc += escInc[v&127] // the lanes are kept only if union < 0x80
			next = v
		}
		// A value is in a run of rleMinRun (3) or more iff it heads,
		// centres or ends three equal values; such a run is announced by
		// the member whose predecessor differs. Every other value is a
		// literal, and a literal token starts wherever a literal's
		// predecessor is not one.
		three := eq & (eq >> 1)
		inRun := three | three<<1 | three<<2
		runStart := inRun &^ (eq << 1)
		lit := (1<<n - 1) &^ inRun
		litStart := lit &^ (lit << 1)
		s[0] = 2*bits.OnesCount64(runStart) + bits.OnesCount64(litStart) + bits.OnesCount64(lit)
		// A value whose varint is longer moves from the lanes to z's tails.
		var z colSizer
		for i := 0; union >= 0x80 && i < n; i++ {
			if v := vals[i]; v >= 0x80 {
				esc -= escInc[v&127]
				l := uvarintLen(v)
				z.addTail(v, l)
				s[0] += (l - 1) * int((runStart|lit)>>i&1)
			}
		}
		// Byte m-1 is mode m's size but for z's tails (≤ 63 + 126: no carry).
		esc += packedLanes[n]
		for m := 1; m < numModes; m++ {
			s[m] = int(uint8(esc))
			esc >>= 8
		}
		if union >= 0x80 {
			z.addTails(&s)
		}
		return s
	}
	var z colSizer
	for i := 0; i < n; {
		v := vals[i]
		j := i + 1
		for j < n && vals[j] == v {
			j++
		}
		z.run(v, j-i)
		i = j
	}
	return z.sizes(n)
}

// sizes closes the column, n values long, and returns its size by mode.
func (z *colSizer) sizes(n int) (s [numModes]int) {
	z.closeLiteral()
	s[0] = z.rle
	for m, w := range packWidths {
		s[m+1] = packedLen(n, w)
	}
	z.addTails(&s)
	return s
}

// addTails adds each packed mode's tail to its size in s.
func (z *colSizer) addTails(s *[numModes]int) {
	for l := len(z.tail) - 2; l > 0; l-- {
		z.tail[l] += z.tail[l+1]
	}
	for m, w := range packWidths {
		s[m+1] += z.tail[w+1]
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// bestMode is the mode of the smallest of a column's sizes. A tie goes to
// the lower mode: to run-length, then to width 4 — the two modes the
// format's first encoder chose between, so a column either wins keeps its
// bytes — then to the narrower width.
func bestMode(s *[numModes]int) int {
	m, best := 0, s[0]
	for k := 1; k < numModes; k++ {
		sz := s[k]
		if sz < best {
			m = k
		}
		best = min(best, sz)
	}
	return m
}

// appendRLE emits vals as a mode 0 column: the mode, then the token stream
// colSizes measured. size is its mode 0 size, so the destination is grown
// once and written in place.
func appendRLE(dst []byte, vals []uint64, size int, pr *pairing) []byte {
	dst = pr.put(dst, 0)
	at := len(dst)
	dst = growBytes(dst, size)
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

// appendCol emits one value column: its mode (see pairing), then the
// smallest of the column's encodings. Mode 0 is the varint RLE stream;
// every other mode packs each value at one width of packWidths (see
// appendPacked). Counter columns are delta-of-delta chains whose values
// cluster just above zero — too scattered for runs, but almost always a
// few bits wide — so they pack; index and missed columns collapse into
// runs and keep mode 0.
//
// The choice is made from colSizes' sizes (bestMode says how ties break)
// and only the winner is encoded.
func appendCol(dst []byte, vals []uint64, pr *pairing) []byte {
	s := colSizes(vals)
	if m := bestMode(&s); m > 0 {
		return appendPacked(dst, vals, m, s[m], pr)
	}
	return appendRLE(dst, vals, s[0], pr)
}

// appendPacked emits vals as a column of packed mode m: the mode, then the
// block colSizes measured at size bytes — each value in w bits,
// least significant bit first, the last byte's spare bits zero — and the
// overflow tail: a value of 2^w-1 or more is packed as 2^w-1 and follows
// there as a varint, in column order.
func appendPacked(dst []byte, vals []uint64, m, size int, pr *pairing) []byte {
	w := packWidths[m-1]
	esc := uint64(1)<<w - 1
	dst = pr.put(dst, m)
	at := len(dst)
	tail := at + packedLen(len(vals), w)
	// A word takes 57/w values (7 bits may be held over) and is stored whole
	// from its first byte not yet filled, up to 7 bytes into the tail.
	buf := growBytes(dst, size+7)
	var acc uint64
	var held uint
	for i, per := 0, int(57/w); i < len(vals); i += per {
		for _, v := range vals[i:min(i+per, len(vals))] {
			acc |= min(v, esc) << (held & 63)
			held += w
		}
		binary.LittleEndian.PutUint64(buf[at:], acc)
		at += int(held >> 3)
		acc >>= held &^ 7
		held &= 7
	}
	dst = buf[:len(buf)-7]
	for j := 0; tail < len(dst); j++ {
		if vals[j] >= esc {
			tail = putUvarint(dst, tail, vals[j])
		}
	}
	return dst
}

// colRun is a maximal run of n equal values v.
type colRun struct {
	v uint64
	n int
}

// runCol builds one of the per-sample columns (series slot, time index,
// missed, or a predicted one) as runs: they hold one value for whole
// polls, so the encoder tracks the open run while it walks the samples,
// and sizes and emits the column run by run, never value by value.
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

// runs measures the column runs hold.
func (z *colSizer) runs(runs []colRun) {
	for _, r := range runs {
		z.run(r.v, r.n)
	}
	z.closeLiteral()
}

// appendRunCol is appendCol for a column of n values held as runs: same
// sizes, same choice, same bytes — unless pred, the column's residuals
// against the batch's prediction, is strictly shorter as run-length; then
// pred, in modePredicted. Run-length wins, tie included, if no longer
// than the narrowest block: a packed mode is a block and its tail.
func appendRunCol(dst []byte, runs, pred []colRun, n int, scratch *[]uint64, pr *pairing) []byte {
	var z colSizer
	z.runs(runs)
	m, size := 0, z.rle
	if size > packedLen(n, 1) {
		s := z.sizes(n)
		m = bestMode(&s)
		size = s[m]
	}
	if pred != nil {
		var zp colSizer
		if zp.runs(pred); zp.rle < size {
			runs, m, size = pred, modePredicted, zp.rle
		}
	}
	if m > 0 && m < modePredicted { // scratch expands the runs: this is rare
		vals := (*scratch)[:0]
		for _, r := range runs {
			for k := 0; k < r.n; k++ {
				vals = append(vals, r.v)
			}
		}
		*scratch = vals
		return appendPacked(dst, vals, m, size, pr)
	}
	dst = pr.put(dst, m)
	at := len(dst)
	dst = growBytes(dst, size)
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

// colRead decodes one appendCol column of exactly want values. Only a
// column that can be predicted passes predicted, which says if it was: its
// values are then residuals, to which the caller adds the prediction.
func colRead(r *payloadReader, dst []uint64, want int, predicted *bool) []uint64 {
	mode := r.mode()
	switch {
	case r.err != nil:
		return dst
	case mode == modePredicted && predicted != nil:
		*predicted = true
		return rleRead(r, dst, want)
	case mode == 0:
		return rleRead(r, dst, want)
	case mode > len(packWidths):
		r.err = ErrCorrupt
		return dst
	}
	w := packWidths[mode-1]
	nb := packedLen(want, w)
	if len(r.buf) < nb {
		r.err = ErrCorrupt
		return dst
	}
	if spare := uint(8*nb) - uint(want)*w; nb > 0 && r.buf[nb-1]>>(8-spare) != 0 {
		r.err = ErrCorrupt // spare bits must be zero
		return dst
	}
	buf := r.buf
	r.buf = r.buf[nb:]
	esc := uint64(1)<<w - 1
	base := len(dst)
	dst = slices.Grow(dst, want)[:base+want]
	out := dst[base:]
	// A word is read from the block's first byte not yet consumed, and the
	// 57/w values it holds whole are taken: what it reads past the block is
	// never taken. Only a payload's last 7 bytes have fewer than 8 after them.
	per := int(57 / w)
	for i, bit := 0, uint(0); i < want; bit = uint(i) * w {
		var x uint64
		if at := int(bit >> 3); at+8 <= len(buf) {
			x = binary.LittleEndian.Uint64(buf[at:])
		} else {
			for k, c := range buf[at:] {
				x |= uint64(c) << (8 * k)
			}
		}
		x >>= bit & 7
		for k := min(want-i, per); k > 0; k-- {
			v := x & esc
			x >>= w & 63
			if v == esc {
				if v = r.uvarint(); v < esc {
					r.err = ErrCorrupt // absent, or would have been inline
					return dst[:base+i]
				}
			}
			out[i] = v
			i++
		}
	}
	return dst
}

// seriesKey identifies one counter series within a stream: the port plus
// the packed direction/kind byte the row formats already use.
type seriesKey struct {
	port uint16
	dk   byte
}

// mbw3Series is one series of the stream. Its chain state is what deltas
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

	seriesState

	// capHint is the cap to reserve next time: one more than the series'
	// count in the last batch written (polls straddle batch boundaries).
	capHint int32

	// lastNext is the entry after this one in the chain's last table, if
	// the table holds this one.
	lastNext int32
}

// seriesState is a series' chain state. The zero state is
// indistinguishable from an absent series: both chain from zero.
type seriesState struct {
	value  uint64
	valueD int64
	bins   [asic.NumSizeBins]uint64
	binsD  [asic.NumSizeBins]int64
}

// mbw3Chain is the state an MBW3 payload's deltas chain against: the
// epoch, the time chain and every series' chain state. A stream that
// carries one rack has one chain; an MBW4 stream keeps one per rack.
type mbw3Chain struct {
	// The epoch, the time chain, and the series: idx maps a series key to
	// its states entry, and states[i].key is that key — the invariant the
	// encoder's successor hints are checked against. idx is made on the
	// first series, so an empty chain costs only its struct.
	epochKnown bool
	epoch      uint32
	lastTime   int64
	lastDelta  int64
	idx        map[seriesKey]int
	states     []mbw3Series

	// The last table — the series table of the payload last committed on
	// the chain — as a cycle through states: lastLen entries from
	// lastHead, slot 0's, each one's lastNext naming the next slot's and
	// the last slot's naming lastHead. It is empty on a fresh chain, after
	// an empty payload and until an epoch's first payload commits. A
	// payload whose table is a rotation of it writes the rotation instead.
	lastHead int32
	lastLen  int

	// tail is the encoder's states entry of the last sample written,
	// whose successor hint predicts the next batch's first. stamps counts
	// the batches encoded on the chain, across resets, and numbers the
	// next: whatever scratch encodes it, a batch's stamp is one no entry
	// of the chain carries yet, and 0, a new entry's, is never issued.
	tail   int
	stamps int

	// On a Reader: id names this chain's incarnation, unique in the
	// process and renewed by reset, and gen counts the payloads decoded
	// since. A Writer's chain that copied this one at gen g can take the
	// frame that moves it to g+1 verbatim.
	id, gen uint64
}

// chainIDs issues mbw3Chain ids; 0 is never issued, so it names no chain.
var chainIDs atomic.Uint64

func newMBW3Chain() *mbw3Chain { return &mbw3Chain{id: chainIDs.Add(1)} }

// reset empties the chain, as if no payload had been encoded or decoded
// on it, and gives it a new id.
func (ch *mbw3Chain) reset() {
	ch.epochKnown = false
	ch.epoch = 0
	ch.lastTime = 0
	ch.lastDelta = 0
	clear(ch.idx)
	ch.states = ch.states[:0]
	ch.lastLen = 0
	ch.id, ch.gen = chainIDs.Add(1), 0
}

// setLast makes table, states entries in slot order, the last table.
func setLast[E int | int32](ch *mbw3Chain, table []E) {
	ch.lastLen = len(table)
	for i, si := range table {
		ch.states[si].lastNext = int32(table[(i+1)%len(table)])
	}
	if len(table) > 0 {
		ch.lastHead = int32(table[0])
	}
}

// grow makes room for n more series, so that a chain meeting a batch's
// series table all at once — a fresh decode — allocates once.
func (ch *mbw3Chain) grow(n int) {
	if ch.idx == nil {
		ch.idx = make(map[seriesKey]int, n)
	}
	ch.states = slices.Grow(ch.states, n)
}

// addSeries enters k into the chain with zero chain state, which is
// indistinguishable from absent.
func (ch *mbw3Chain) addSeries(k seriesKey) int {
	if ch.idx == nil {
		ch.idx = make(map[seriesKey]int)
	}
	si := len(ch.states)
	ch.states = append(ch.states, mbw3Series{key: k})
	ch.idx[k] = si
	return si
}

// state is k's chain state, zero when the chain does not hold k.
func (ch *mbw3Chain) state(k seriesKey) seriesState {
	if si, ok := ch.idx[k]; ok {
		return ch.states[si].seriesState
	}
	return seriesState{}
}

// sameState reports whether a payload would decode the same under ch as
// under o: the same epoch, time chain and last table — the same series in
// the same order — and, series by series, the same chain state, an absent
// series reading as zero.
func (ch *mbw3Chain) sameState(o *mbw3Chain) bool {
	if ch.epochKnown != o.epochKnown || ch.epoch != o.epoch || ch.lastTime != o.lastTime || ch.lastDelta != o.lastDelta ||
		ch.lastLen != o.lastLen {
		return false
	}
	for a, b, k := ch.lastHead, o.lastHead, 0; k < ch.lastLen; k++ {
		if ch.states[a].key != o.states[b].key {
			return false
		}
		a, b = ch.states[a].lastNext, o.states[b].lastNext
	}
	for i := range ch.states {
		if ch.states[i].seriesState != o.state(ch.states[i].key) {
			return false
		}
	}
	for i := range o.states {
		if o.states[i].seriesState != ch.state(o.states[i].key) {
			return false
		}
	}
	return true
}

// follow advances ch past a payload that was decoded on src — which it
// did not encode: ch takes on src's state for the series the payload
// touched (src.states entries, in table order), its table as the last
// table, and src's epoch and time chain. A fresh payload restarts the
// chain with exactly its series.
func (ch *mbw3Chain) follow(src *mbw3Chain, touched []int, fresh bool) {
	if fresh {
		clear(ch.idx)
		ch.states = ch.states[:0]
	}
	if len(ch.states) == 0 {
		ch.grow(len(touched))
	}
	ch.lastLen = len(touched)
	prev := 0
	for slot, si := range touched {
		s := &src.states[si]
		wi, ok := ch.idx[s.key]
		if !ok {
			wi = ch.addSeries(s.key)
		}
		ch.states[wi].seriesState = s.seriesState
		if slot == 0 {
			ch.lastHead = int32(wi)
		} else {
			ch.states[prev].lastNext = int32(wi)
		}
		ch.states[wi].lastNext, prev = ch.lastHead, wi // the last slot's stays
	}
	ch.epochKnown, ch.epoch = src.epochKnown, src.epoch
	ch.lastTime, ch.lastDelta = src.lastTime, src.lastDelta
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
//	                         in first-appearance order, each series once;
//	                         or 0 and a rotation r (see below)
//	seriesCol                per sample, table slot as a zigzag delta
//	                         chain — preserves exact sample order
//	timeIdxCol               per sample, index into times, same delta
//	                         chain encoding
//	missedCol                per sample, Missed verbatim
//	value/bins columns       per table slot in order: the series'
//	                         cumulative Values as zigzag delta-of-delta
//	                         chains, continued from the previous batch;
//	                         size-bin series append NumSizeBins bin
//	                         columns encoded the same way
//
// Every column is a mode (a byte, or the high nibble of the column
// before's: pairing) and the column in that mode (appendCol): run-length,
// or packed at one of packWidths' widths. seriesCol and timeIdxCol may
// instead be run-length zigzag residuals against what the payload so far
// predicts (modePredicted, predictors); the first sample steps from time
// index -1.
//
// Delta chains make the codec stateful: the first batch of a stream (or
// the first after an epoch change) carries absolutes as deltas from zero,
// and every later batch only the movement since the previous one.
//
// A payload that lists the series of its chain's last table — the table
// of the payload before, empty after an empty one — in the same cyclic
// order writes nSeries 0 and, when that table has more than one series,
// the rotation r < its length as a uvarint: slot i is the last table's
// slot (i+r) mod its length. A payload that decodes fresh always lists
// its table.
//
// A chain is state and the codec is scratch: everything below ch lives
// for one payload. Writer and Reader keep only chains, and borrow a codec
// for each frame (lendCodec), pointed at the chain of the rack the frame
// carries.
type mbw3Codec struct {
	// ch is the chain the next payload encodes or decodes against.
	ch *mbw3Chain
	// idle is set while the codec waits to be lent (see codecs).
	idle atomic.Bool

	// stamp numbers the batch being encoded, from its chain's count: a
	// lent codec meets every chain, so the number must be the chain's.
	stamp int

	// Per-batch scratch, reused so steady-state encode and decode do not
	// allocate. The encoder uses vals and binvals as arenas: each series'
	// columns are a region reserved when the batch first meets the series,
	// valsTop and binTop marking what is taken. The decoder writes rows,
	// each slot's through its positions in pos.
	payload []byte
	times   []int64
	col     []uint64
	tidx    []uint64
	missed  []uint64
	vals    []uint64
	binvals []uint64
	tkeys   []seriesKey
	sorted  []uint32
	counts  []int
	offs    []int
	cursor  []int
	sids    []int
	pos     []int
	next    []seriesState

	// Decoder: the ch.states entry of each table slot of the payload last
	// decoded, and whether it decoded fresh — from zero, ch holding no
	// state or another epoch. A Reader hands in its own touched slice and
	// takes it back with the call's result.
	touched []int
	fresh   bool

	// Encoder-only scratch: the batch's series table as states entries in
	// slot order, and the per-sample columns as runs — the slot and time
	// index both as deltas and as predicted residuals.
	slots     []int32
	sidCol    runCol
	sidPred   runCol
	tidxCol   runCol
	tidxPred  runCol
	missedCol runCol
	valsTop   int
	binTop    int

	// The predictions (see predictors), both ways.
	preds []slotPred

	// Pending time-chain state and tail, applied by commit.
	pendFresh     bool
	pendLastTime  int64
	pendLastDelta int64
	pendTail      int
}

func newMBW3Codec() *mbw3Codec { return &mbw3Codec{ch: newMBW3Chain()} }

// codecs lends codec scratch to one encode or decode at a time: each
// Writer.WriteBatch and Reader.ReadBatch borrows one for its frame and
// gives it back before it returns, so a stream keeps only its chains
// between frames, and a fresh stream's first frame runs on warm scratch.
//
// Idle scratch is cached per P in local, a sync.Pool, so a call mostly
// gets scratch last used on its own CPU: one free list shared by every
// CPU handed the arenas from core to core and cost ingest_live about 5%
// of its throughput on two vCPUs. A sync.Pool may drop what it is given
// — at every GC, and at random under the race detector — so every codec
// is also listed in all, and a call the pool leaves empty-handed claims
// an idle codec from there before it makes a new one: dropped scratch is
// found again rather than reallocated, which the ingest loop's
// zero-allocation tests count. Whoever flips a codec's idle flag owns
// it, so a codec the pool still holds after the list lent it is skipped
// when it comes up.
var codecs struct {
	local sync.Pool
	mu    sync.Mutex
	all   []*mbw3Codec
}

// At most maxListedCodecs codecs are listed (the rest live in the pool
// alone), and an idle codec keeps at most maxIdleCodecValues arena
// values: scratch an outsized batch grew is dropped, not pinned.
const (
	maxListedCodecs    = 64
	maxIdleCodecValues = 1 << 20
)

// lendCodec returns scratch pointed at ch, for one call.
func lendCodec(ch *mbw3Chain) *mbw3Codec {
	for {
		x := codecs.local.Get()
		if x == nil {
			break
		}
		if c := x.(*mbw3Codec); c.idle.CompareAndSwap(true, false) {
			c.ch = ch
			return c
		}
	}
	codecs.mu.Lock()
	defer codecs.mu.Unlock()
	for _, c := range codecs.all {
		if c.idle.CompareAndSwap(true, false) {
			c.ch = ch
			return c
		}
	}
	c := &mbw3Codec{ch: ch}
	if len(codecs.all) < maxListedCodecs {
		codecs.all = append(codecs.all, c)
	}
	return c
}

// returnCodec gives back scratch lendCodec lent. The caller keeps no
// reference to it.
func returnCodec(c *mbw3Codec) {
	c.ch = nil
	if cap(c.vals)+cap(c.binvals)+cap(c.pos) > maxIdleCodecValues {
		*c = mbw3Codec{}
	}
	c.idle.Store(true)
	codecs.local.Put(c)
}

// Reset empties the codec's current chain.
func (c *mbw3Codec) Reset() { c.ch.reset() }

func sampleDK(s *Sample) byte { return byte(s.Dir) | byte(s.Kind)<<1 }

func isSizeBins(dk byte) bool { return asic.CounterKind(dk>>1) == asic.KindSizeBins }

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
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
	ch := c.ch
	si, ok := ch.idx[k]
	if !ok {
		si = ch.addSeries(k)
	}
	if prev < len(ch.states) {
		ch.states[prev].next = int32(si)
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
	st := &c.ch.states[si]
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
	ch := c.ch
	fresh := !ch.epochKnown || b.Epoch != ch.epoch
	c.pendFresh = fresh
	c.pendLastTime, c.pendLastDelta = ch.lastTime, ch.lastDelta
	if fresh {
		c.pendLastTime, c.pendLastDelta = 0, 0
	}

	n := len(b.Samples)
	if cap(c.payload) == 0 {
		// Fresh scratch sizes its payload once, from its first batch: a
		// delta-coded sample is a few bytes.
		c.payload = make([]byte, 0, 64+6*n)
	}
	p := c.payload[:0]
	p = binary.AppendUvarint(p, uint64(b.Rack))
	p = binary.AppendUvarint(p, uint64(b.Epoch))
	p = binary.AppendUvarint(p, uint64(n))
	c.slots = c.slots[:0]
	ch.stamps++
	c.stamp = ch.stamps
	if n == 0 {
		c.payload = p
		return
	}
	if cap(ch.states) == 0 {
		// A fresh chain sizes its table once, from its first batch: a batch
		// cannot hold more series than samples, and 64 covers a poll of a
		// rack's full counter set; past that, append doubles as usual.
		ch.grow(min(n, 64))
	}

	// One pass over the samples groups them into the batch series table
	// and the deduplicated time list, builds the missed column as runs,
	// notes each sample's slot and time step for sampleCols, and appends
	// every value's second difference to its series' column. A poll
	// visits its series in a fixed cycle, so the series that followed the
	// previous sample's last time is almost always this sample's: that
	// successor hint is tried first and checked against the entry's key —
	// exactly what idx would answer — and idx is only consulted on a miss.
	// New series enter the stream map immediately with zero state, which
	// is indistinguishable from absent — so this pass is safe even when
	// the batch is never committed.
	//
	// The loop keeps in locals only what every sample touches; whatever
	// changes once a poll or less lives in c and behind calls, so the
	// per-sample path stays in registers.
	stamp := c.stamp
	c.vals, c.binvals = c.vals[:cap(c.vals)], c.binvals[:cap(c.binvals)]
	c.valsTop, c.binTop = 0, 0
	c.times = c.times[:0]
	c.sidCol.reset()
	c.sidPred.reset()
	c.tidxCol.reset()
	c.tidxPred.reset()
	c.missedCol.reset()
	c.sids = growInt(c.sids, n)
	sids := c.sids
	states := ch.states
	prev, hint := ch.tail, 0
	if prev < len(states) {
		hint = int(states[prev].next)
	}
	// The first sample opens slot 0 and time 0.
	missedV := uint64(b.Samples[0].Missed)
	lastT := b.Samples[0].Time.Nanoseconds() - 1
	for j := range b.Samples {
		s := &b.Samples[j]
		dk := sampleDK(s)
		si := hint
		if si >= len(states) || states[si].key.port != s.Port || states[si].key.dk != dk {
			si = c.resolveSeries(seriesKey{port: s.Port, dk: dk}, prev)
			states = ch.states
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

		step := 0
		if t := s.Time.Nanoseconds(); t != lastT {
			step = 1
			c.times = append(c.times, t)
			lastT = t
		}
		sids[j] = int(st.slot)<<1 | step
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
	c.missedCol.close(missedV, n)
	c.sampleCols(sids[:n])
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
	if r, ok := c.rotation(); ok {
		p = append(p, 0)
		if len(c.slots) > 1 {
			p = binary.AppendUvarint(p, uint64(r))
		}
	} else {
		p = binary.AppendUvarint(p, uint64(len(c.slots)))
		for _, si := range c.slots {
			p = binary.AppendUvarint(p, uint64(states[si].key.port))
			p = append(p, states[si].key.dk)
		}
	}
	var pr pairing
	p = appendRunCol(p, c.sidCol.runs, c.sidPred.runs, n, &c.col, &pr)
	p = appendRunCol(p, c.tidxCol.runs, c.tidxPred.runs, n, &c.col, &pr)
	p = appendRunCol(p, c.missedCol.runs, nil, n, &c.col, &pr)
	for _, si := range c.slots {
		st := &states[si]
		p = appendCol(p, c.vals[st.off:][:st.count], &pr)
		if st.binoff >= 0 {
			for k := 0; k < asic.NumSizeBins; k++ {
				p = appendCol(p, c.binvals[st.binoff+k*int(st.cap):][:st.count], &pr)
			}
		}
	}
	c.payload = p
}

// rotation reports whether the batch's table is its chain's last table
// rotated — slot i is the last table's slot (i+r) mod n — and by how
// much: slot 0 is looked for in the last table, and each slot after it
// must be the entry after the one before. A payload that restarts the
// chain lists its table.
func (c *mbw3Codec) rotation() (int, bool) {
	ch, n := c.ch, len(c.slots)
	if c.pendFresh || ch.lastLen != n {
		return 0, false
	}
	si, r := ch.lastHead, 0
	for ; si != c.slots[0]; si = ch.states[si].lastNext {
		if r++; r == n {
			return 0, false
		}
	}
	for _, want := range c.slots[1:] {
		if si = ch.states[si].lastNext; si != want {
			return 0, false
		}
	}
	return r, true
}

// slotPred is what a payload so far predicts of a slot: the slot to
// follow it — (s+1) mod nSeries until the payload shows one — and the
// time step of its next sample, a new time (1) for slot 0 and none for
// the others until the payload shows one.
type slotPred struct{ next, step int32 }

// predictors resets the predictions for a payload of nSeries series: one
// per slot and, last, the one before the first sample, whose next is
// slot 0.
func (c *mbw3Codec) predictors(nSeries int) []slotPred {
	c.preds = slices.Grow(c.preds[:0], nSeries+1)[:nSeries+1]
	for s := range c.preds {
		c.preds[s] = slotPred{next: int32(s + 1)}
	}
	c.preds[0].step, c.preds[nSeries-1].next, c.preds[nSeries].next = 1, 0, 0
	return c.preds
}

// sampleCols builds the series-slot and time-index columns as runs, both
// as deltas and as residuals against their predictions, from each
// sample's slot<<1 | step. The first sample opens slot 0 and time 0: as
// deltas, both chains start at zero, and as predicted, slot 0 stepping
// from time index -1 is what was predicted, so all four open runs hold
// zero.
func (c *mbw3Codec) sampleCols(samples []int) {
	preds := c.predictors(len(c.slots))
	prev, last := &preds[0], 0
	var sidV, tidxV, sidP, tidxP int64
	for j := 1; j < len(samples); j++ {
		slot, step := samples[j]>>1, int32(samples[j]&1)
		if d := int64(slot - last); d != sidV {
			c.sidCol.close(zig(sidV), j)
			sidV = d
		}
		last = slot
		if d := int64(step); d != tidxV {
			c.tidxCol.close(zig(tidxV), j)
			tidxV = d
		}
		if d := int64(slot) - int64(prev.next); d != sidP {
			c.sidPred.close(zig(sidP), j)
			sidP = d
		}
		prev.next = int32(slot)
		prev = &preds[slot]
		if d := int64(step - prev.step); d != tidxP {
			c.tidxPred.close(zig(tidxP), j)
			tidxP = d
		}
		prev.step = step
	}
	c.sidCol.close(zig(sidV), len(samples))
	c.tidxCol.close(zig(tidxV), len(samples))
	c.sidPred.close(zig(sidP), len(samples))
	c.tidxPred.close(zig(tidxP), len(samples))
}

// commit advances the stream state to reflect the batch buildPayload just
// encoded.
func (c *mbw3Codec) commit(b *Batch) {
	ch := c.ch
	for _, si := range c.slots {
		st := &ch.states[si]
		st.value, st.valueD = st.run, st.runD
		if st.binoff >= 0 {
			st.bins, st.binsD = st.runBins, st.runBinsD
		}
		st.capHint = st.count + 1
	}
	if len(c.slots) > 0 {
		ch.tail = c.pendTail
	}
	setLast(ch, c.slots)
	if c.pendFresh {
		// A fresh epoch restarts the stream with exactly this batch's
		// series. The others keep their entries but lose their chains:
		// zero state is indistinguishable from absent.
		for i := range ch.states {
			if st := &ch.states[i]; st.stamp != c.stamp {
				st.seriesState = seriesState{}
			}
		}
	}
	ch.epochKnown = true
	ch.epoch = b.Epoch
	ch.lastTime = c.pendLastTime
	ch.lastDelta = c.pendLastDelta
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

// DecodePayload decodes one MBW3 payload — an MBW3 or MBW4 frame's — into
// b, continuing the delta chain c.ch, each column straight into the rows
// it fills. A payload it rejects leaves the chain as it was, and b without
// samples. Once the scratch is warm it allocates nothing per batch
// (TestMBW3DecodeAllocatesNothing).
func (c *mbw3Codec) DecodePayload(magic uint32, payload []byte, b *Batch) (err error) {
	defer func() {
		if err != nil {
			b.Samples = b.Samples[:0]
		}
	}()
	if magic != Magic3 && magic != Magic4 {
		return fmt.Errorf("%w: magic %#x is not mbw3", ErrCorrupt, magic)
	}
	ch := c.ch
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
	fresh := !ch.epochKnown || uint32(epoch) != ch.epoch
	b.Rack, b.Epoch = uint32(rack), uint32(epoch)
	b.Samples = b.Samples[:0]
	if n == 0 {
		if len(r.buf) != 0 {
			return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf))
		}
		if fresh {
			clear(ch.idx)
			ch.states = ch.states[:0]
			ch.lastTime, ch.lastDelta = 0, 0
		}
		ch.epochKnown, ch.epoch = true, uint32(epoch)
		ch.lastLen = 0
		c.touched, c.fresh = c.touched[:0], fresh
		ch.gen++
		return nil
	}

	// Times.
	nTimes := r.uvarint()
	if r.err != nil || nTimes == 0 || nTimes > count {
		return fmt.Errorf("%w: time count", ErrCorrupt)
	}
	lt, ld := ch.lastTime, ch.lastDelta
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

	// Series table: touched holds each slot's states entry, or -1 for a
	// series that chains from zero — one the chain does not hold, or any on
	// a fresh payload; commit enters those. A listed series is looked up in
	// the chain once; a rotated last table names its entries.
	nSeries := r.uvarint()
	if r.err != nil || nSeries > count {
		return fmt.Errorf("%w: series count", ErrCorrupt)
	}
	c.tkeys = c.tkeys[:0]
	if nSeries == 0 {
		if err := c.rotatedTable(&r, fresh, count); err != nil {
			return err
		}
		nSeries = uint64(len(c.tkeys))
	} else if err := c.listedTable(&r, nSeries, fresh); err != nil {
		return err
	}

	// Per-sample columns — series slot, time index, missed — fill every
	// field of every row but the values, in one pass. A reused b.Samples
	// still holds the previous batch, so Bins is cleared for series that
	// carry none.
	var predSlot, predTime bool
	c.col = colRead(&r, c.col[:0], n, &predSlot)
	c.tidx = colRead(&r, c.tidx[:0], n, &predTime)
	c.missed = colRead(&r, c.missed[:0], n, nil)
	if r.err != nil {
		return fmt.Errorf("%w: sample columns", ErrCorrupt)
	}
	b.Samples = slices.Grow(b.Samples, n)[:n]
	rows := b.Samples
	c.sids = growInt(c.sids, n)
	c.counts = growInt(c.counts, int(nSeries))
	clear(c.counts)
	sids, tidx, missed := c.sids[:n], c.tidx[:n], c.missed[:n]
	// A predicted column holds residuals: the slot is its prediction plus
	// the residual, and so is the time step. A delta column adds to the
	// previous value instead.
	preds := c.predictors(int(nSeries))
	prev := &preds[nSeries]
	var slot, ti int64
	if predTime {
		ti = -1
	}
	for j, v := range c.col[:n] {
		if predSlot {
			slot = int64(prev.next)
		}
		slot += unzig(v)
		if slot < 0 || slot >= int64(nSeries) {
			return fmt.Errorf("%w: series index %d", ErrCorrupt, slot)
		}
		step := unzig(tidx[j])
		if predTime {
			step += int64(preds[slot].step)
		}
		ti += step
		switch {
		case ti < 0 || ti >= int64(nTimes):
			return fmt.Errorf("%w: time index %d", ErrCorrupt, ti)
		case missed[j] > 1<<32-1:
			return fmt.Errorf("%w: missed count %d", ErrCorrupt, missed[j])
		}
		// step spans two time indexes in range, so it fits. For a delta
		// column these predictions go unread.
		prev.next = int32(slot)
		prev = &preds[slot]
		prev.step = int32(step)
		sids[j] = int(slot)
		c.counts[slot]++
		k, s := c.tkeys[slot], &rows[j]
		s.Time = simclock.Time(c.times[ti])
		s.Port, s.Dir, s.Kind = k.port, asic.Direction(k.dk&1), asic.CounterKind(k.dk>>1)
		s.Missed = uint32(missed[j])
		if !isSizeBins(k.dk) {
			s.Bins = [asic.NumSizeBins]uint64{}
		}
	}

	// Each slot's rows, in order: pos[offs[slot]:][:counts[slot]]. Every
	// table entry must be referenced (encoders never emit unused series).
	c.offs = growInt(c.offs, int(nSeries))
	c.cursor = growInt(c.cursor, int(nSeries))
	off := 0
	for slot, cnt := range c.counts {
		if cnt == 0 {
			return fmt.Errorf("%w: unreferenced series %d", ErrCorrupt, slot)
		}
		c.offs[slot], c.cursor[slot] = off, off
		off += cnt
	}
	c.pos = growInt(c.pos, n)
	for j, slot := range c.sids {
		c.pos[c.cursor[slot]] = j
		c.cursor[slot]++
	}

	// Value (and bin) columns, reconstructed to absolutes against the
	// chain into the rows; a series that chains from zero is how first
	// batches carry absolutes. next keeps each slot's new state for commit.
	c.next = slices.Grow(c.next[:0], int(nSeries))[:nSeries]
	for slot, si := range c.touched {
		st := &c.next[slot]
		*st = seriesState{}
		if si >= 0 {
			*st = ch.states[si].seriesState
		}
		pos := c.pos[c.offs[slot]:][:c.counts[slot]]
		c.col = colRead(&r, c.col[:0], len(pos), nil)
		v, d := st.value, st.valueD
		for i, z := range c.col {
			d += unzig(z)
			v += uint64(d)
			rows[pos[i]].Value = v
		}
		st.value, st.valueD = v, d
		for k := 0; k < asic.NumSizeBins && isSizeBins(c.tkeys[slot].dk); k++ {
			c.col = colRead(&r, c.col[:0], len(pos), nil)
			v, d := st.bins[k], st.binsD[k]
			for i, z := range c.col {
				d += unzig(z)
				v += uint64(d)
				rows[pos[i]].Bins[k] = v
			}
			st.bins[k], st.binsD[k] = v, d
		}
	}
	if r.err != nil {
		return fmt.Errorf("%w: value columns", ErrCorrupt)
	}
	if r.paired != 0 {
		return fmt.Errorf("%w: a mode paired past the last column", ErrCorrupt)
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf))
	}

	// Commit chain state.
	if fresh {
		clear(ch.idx)
		ch.states = ch.states[:0]
	}
	if len(ch.states) == 0 {
		ch.grow(len(c.tkeys))
	}
	for slot, si := range c.touched {
		if si < 0 {
			si = ch.addSeries(c.tkeys[slot])
			c.touched[slot] = si
		}
		ch.states[si].seriesState = c.next[slot]
	}
	setLast(ch, c.touched)
	ch.epochKnown, ch.epoch = true, uint32(epoch)
	ch.lastTime, ch.lastDelta = lt, ld
	c.fresh = fresh
	ch.gen++
	return nil
}

// listedTable reads a table of nSeries series into tkeys and each one's
// states entry into touched.
func (c *mbw3Codec) listedTable(r *payloadReader, nSeries uint64, fresh bool) error {
	c.sorted = c.sorted[:0]
	for i := uint64(0); i < nSeries; i++ {
		port := r.uvarint()
		dk := r.byte()
		if r.err != nil || port > 1<<16-1 {
			return fmt.Errorf("%w: series table", ErrCorrupt)
		}
		c.tkeys = append(c.tkeys, seriesKey{port: uint16(port), dk: dk})
		c.sorted = append(c.sorted, uint32(port)<<8|uint32(dk))
	}
	// No encoder lists a series twice, and commit's one entry per slot
	// relies on it.
	if slices.Sort(c.sorted); len(slices.Compact(c.sorted)) < len(c.tkeys) {
		return fmt.Errorf("%w: a series listed twice", ErrCorrupt)
	}
	c.touched = growInt(c.touched, int(nSeries))
	for slot, key := range c.tkeys {
		si, ok := c.ch.idx[key]
		if !ok || fresh {
			si = -1
		}
		c.touched[slot] = si
	}
	return nil
}

// rotatedTable reads the rotation that stands for a table — the chain's
// last table, which a fresh payload cannot name — and takes tkeys and
// touched from it. A payload has at least as many samples as series.
func (c *mbw3Codec) rotatedTable(r *payloadReader, fresh bool, count uint64) error {
	ch, n := c.ch, c.ch.lastLen
	if fresh || n == 0 || uint64(n) > count {
		return fmt.Errorf("%w: series count", ErrCorrupt)
	}
	si := ch.lastHead
	if n > 1 {
		rot := r.uvarint()
		if r.err != nil || rot >= uint64(n) {
			return fmt.Errorf("%w: table rotation", ErrCorrupt)
		}
		for ; rot > 0; rot-- {
			si = ch.states[si].lastNext
		}
	}
	c.touched = growInt(c.touched, n)
	for slot := range c.touched {
		c.touched[slot] = int(si)
		c.tkeys = append(c.tkeys, ch.states[si].key)
		si = ch.states[si].lastNext
	}
	return nil
}
