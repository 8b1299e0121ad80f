package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// MBC1 is the binary encoding of a shard checkpoint (CheckpointState).
// Row-major, one pass, no columns:
//
//	file     = "MBC1" version(1 byte = 1) body crc32
//	body     = uvarint archived_batches
//	           uvarint #gate     { uvarint rack, uvarint epoch, varint last_time, bool seen }
//	           bool has_ingest   [ uvarint batches, uvarint samples, varint last_sample_nanos,
//	                               uvarint #per_rack { uvarint rack, uvarint samples } ]
//	           bool has_figures  [ uvarint samples, uvarint #series { series } ]
//	series   = uvarint rack, uvarint port, varint dir, varint kind
//	           util      uvarint speed_bps, varint n, sample prev, string err
//	           seg       f64 hot_above, f64 cold_below, varint arm_after, varint disarm_after,
//	                     bool active, varint hot_run, varint cold_run, varint run_start,
//	                     varint cur.start, varint cur.end, varint prev_end, bool closed
//	           markov    varint counts[0][0] [0][1] [1][0] [1][1], varint n, bool prev, bool primed
//	           durations uvarint #values { f64 }
//	           gaps      uvarint #values { f64 }
//	           moments   varint n, f64 sum, f64 min, f64 max
//	           util_hist uvarint #bins { uvarint }
//	           varint points, varint hot
//	sample   = varint time, uvarint port, varint dir, varint kind, uvarint missed,
//	           uvarint value, 6 × uvarint bins
//	string   = uvarint length, bytes
//
// uvarint/varint are encoding/binary's (zigzag for signed); an f64 is the
// IEEE-754 bits, little-endian, so ±Inf, NaN payloads and -0 survive
// bit-exact with no shortest-decimal round trip; a bool is one byte, 0
// or 1; crc32 is IEEE, little-endian, over every byte before it.
// Gate entries and per-rack counts are strictly ascending by rack, and
// series by (rack, port, dir, kind), as the cuts the encoder is given
// list them; the decoder refuses an entry that does not sort above the
// one before it.
//
// Encoding is deterministic and decoding accepts only what the encoder
// can emit — minimal varints, 0/1 bools, values inside their field's
// range, no trailing bytes — so a file that loads re-encodes to itself.
// The decoder faces bytes from disk: it bounds every count by the bytes
// left before allocating for it, and returns an error, never panics.

// CheckpointMagic is the first four bytes of an MBC1 checkpoint — what
// LoadCheckpoint sniffs to tell it from a legacy JSON one.
const CheckpointMagic = "MBC1"

const mbc1Version = 1

// The fewest bytes one element of each counted section can occupy: the
// decoder's allocation bound (TestMBC1MinimumSizes re-derives them from
// the encoder).
const (
	mbc1MinGateBytes    = 4
	mbc1MinPerRackBytes = 2
	mbc1MinSeriesBytes  = 82
)

// appendCheckpoint appends st's MBC1 encoding to dst.
func appendCheckpoint(dst []byte, st *CheckpointState) []byte {
	start := len(dst)
	dst = append(dst, CheckpointMagic...)
	dst = append(dst, mbc1Version)
	dst = binary.AppendUvarint(dst, st.ArchivedBatches)
	dst = binary.AppendUvarint(dst, uint64(len(st.Gate)))
	for _, g := range st.Gate {
		dst = binary.AppendUvarint(dst, uint64(g.Rack))
		dst = binary.AppendUvarint(dst, uint64(g.Epoch))
		dst = binary.AppendVarint(dst, int64(g.LastTime))
		dst = appendBool(dst, g.Seen)
	}
	dst = appendBool(dst, st.Ingest != nil)
	if in := st.Ingest; in != nil {
		dst = binary.AppendUvarint(dst, in.Batches)
		dst = binary.AppendUvarint(dst, in.Samples)
		dst = binary.AppendVarint(dst, in.LastSampleNanos)
		dst = binary.AppendUvarint(dst, uint64(len(in.PerRack)))
		for _, rc := range in.PerRack {
			dst = binary.AppendUvarint(dst, uint64(rc.Rack))
			dst = binary.AppendUvarint(dst, rc.Samples)
		}
	}
	dst = appendBool(dst, st.Figures != nil)
	if f := st.Figures; f != nil {
		dst = binary.AppendUvarint(dst, f.Samples)
		dst = binary.AppendUvarint(dst, uint64(len(f.Series)))
		for _, s := range f.Series {
			dst = appendSeries(dst, s)
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func appendSeries(dst []byte, s *SeriesState) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Rack))
	dst = binary.AppendUvarint(dst, uint64(s.Port))
	dst = binary.AppendVarint(dst, int64(s.Dir))
	dst = binary.AppendVarint(dst, int64(s.Kind))

	dst = binary.AppendUvarint(dst, s.Util.SpeedBps)
	dst = binary.AppendVarint(dst, int64(s.Util.N))
	dst = appendSample(dst, &s.Util.Prev)
	dst = binary.AppendUvarint(dst, uint64(len(s.Util.Err)))
	dst = append(dst, s.Util.Err...)

	dst = appendFloat(dst, s.Seg.HotAbove)
	dst = appendFloat(dst, s.Seg.ColdBelow)
	dst = binary.AppendVarint(dst, int64(s.Seg.ArmAfter))
	dst = binary.AppendVarint(dst, int64(s.Seg.DisarmAfter))
	dst = appendBool(dst, s.Seg.Active)
	dst = binary.AppendVarint(dst, int64(s.Seg.HotRun))
	dst = binary.AppendVarint(dst, int64(s.Seg.ColdRun))
	dst = binary.AppendVarint(dst, int64(s.Seg.RunStart))
	dst = binary.AppendVarint(dst, int64(s.Seg.Cur.Start))
	dst = binary.AppendVarint(dst, int64(s.Seg.Cur.End))
	dst = binary.AppendVarint(dst, int64(s.Seg.PrevEnd))
	dst = appendBool(dst, s.Seg.Closed)

	for _, row := range s.Markov.Counts {
		for _, c := range row {
			dst = binary.AppendVarint(dst, c)
		}
	}
	dst = binary.AppendVarint(dst, s.Markov.N)
	dst = appendBool(dst, s.Markov.Prev)
	dst = appendBool(dst, s.Markov.Primed)

	dst = appendFloats(dst, s.Durations.Values)
	dst = appendFloats(dst, s.Gaps.Values)

	dst = binary.AppendVarint(dst, s.Moments.N)
	dst = appendFloat(dst, s.Moments.Sum)
	dst = appendFloat(dst, s.Moments.Min)
	dst = appendFloat(dst, s.Moments.Max)

	dst = binary.AppendUvarint(dst, uint64(len(s.UtilHist)))
	for _, c := range s.UtilHist {
		dst = binary.AppendUvarint(dst, c)
	}
	dst = binary.AppendVarint(dst, int64(s.Points))
	return binary.AppendVarint(dst, int64(s.Hot))
}

func appendSample(dst []byte, s *wire.Sample) []byte {
	dst = binary.AppendVarint(dst, int64(s.Time))
	dst = binary.AppendUvarint(dst, uint64(s.Port))
	dst = binary.AppendVarint(dst, int64(s.Dir))
	dst = binary.AppendVarint(dst, int64(s.Kind))
	dst = binary.AppendUvarint(dst, uint64(s.Missed))
	dst = binary.AppendUvarint(dst, s.Value)
	for _, c := range s.Bins {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendFloat(dst, v)
	}
	return dst
}

// openMBC1 checks an MBC1 file's length, version and checksum and
// returns a reader over its body, positioned at archived_batches. No
// field is trusted before the checksum is.
func openMBC1(data []byte) (mbc1Reader, error) {
	const header, trailer = len(CheckpointMagic) + 1, 4
	if len(data) < header+trailer {
		return mbc1Reader{}, errors.New("MBC1 file shorter than its header and checksum")
	}
	if v := data[len(CheckpointMagic)]; v != mbc1Version {
		return mbc1Reader{}, fmt.Errorf("unknown MBC1 version %d", v)
	}
	body := len(data) - trailer
	if want, got := binary.LittleEndian.Uint32(data[body:]), crc32.ChecksumIEEE(data[:body]); want != got {
		return mbc1Reader{}, fmt.Errorf("MBC1 checksum mismatch: file says %08x, content is %08x", want, got)
	}
	return mbc1Reader{buf: data[header:body]}, nil
}

// restoredBody is an MBC1 body past archived_batches, decoded for a
// restore: in the shapes the gate, the ingest stats and the figures tap
// keep, never as a CheckpointState. invalid is the first entry no cut
// could have made — a series without utilBins histogram bins, or an
// entry that does not sort above the one before it — nil when there is
// none.
type restoredBody struct {
	// cut, set before decoding, decodes the per-rack counts as the
	// sorted list a cut holds (perRackCut), not as the stats' map.
	cut bool

	gate map[uint32]*rackEpoch

	ingest          bool // the body has an ingest section
	batches         uint64
	samples         uint64
	lastSampleNanos int64
	perRack         map[uint32]uint64
	perRackCut      []RackCount

	figures        bool // the body has a figures section
	figuresSamples uint64
	series         []*liveSeries
	invalid        error
}

// restoreBody decodes the body past archived_batches into b and returns
// the first malformed field's error, or an error for trailing bytes.
// Series are decoded one at a time into one SeriesState and restored from
// it into slabs sized from the series count. Once an entry is invalid,
// the rest are decoded but not restored: the body cannot be installed.
func (r *mbc1Reader) restoreBody(b *restoredBody) error {
	n := r.count(mbc1MinGateBytes)
	b.gate = make(map[uint32]*rackEpoch, n)
	if n > 0 {
		slab := make([]rackEpoch, n)
		var prev uint32
		for i := range slab {
			g := &slab[i]
			rack := uint32(r.uvarintMax(math.MaxUint32))
			g.epoch = uint32(r.uvarintMax(math.MaxUint32))
			g.lastTime = simclock.Time(r.varint())
			g.seen = r.bool()
			if i > 0 && r.err == nil && b.invalid == nil && rack <= prev {
				b.invalid = misordered("gate rack", rack, prev)
			}
			b.gate[rack] = g
			prev = rack
		}
	}
	if b.ingest = r.bool(); b.ingest {
		b.batches = r.uvarint()
		b.samples = r.uvarint()
		b.lastSampleNanos = r.varint()
		n := r.count(mbc1MinPerRackBytes)
		if b.cut {
			b.perRackCut = slices.Grow(b.perRackCut, n)
		} else {
			b.perRack = make(map[uint32]uint64, n)
		}
		var prev uint32
		for i := range n {
			rack := uint32(r.uvarintMax(math.MaxUint32))
			if i > 0 && r.err == nil && b.invalid == nil && rack <= prev {
				b.invalid = misordered("per-rack count of rack", rack, prev)
			}
			if samples := r.uvarint(); b.cut {
				b.perRackCut = append(b.perRackCut, RackCount{Rack: rack, Samples: samples})
			} else {
				b.perRack[rack] = samples
			}
			prev = rack
		}
	}
	if b.figures = r.bool(); b.figures {
		b.figuresSamples = r.uvarint()
		if n := r.count(mbc1MinSeriesBytes); n > 0 {
			sl := newRestoreSlabs(n, n*utilBins, 0)
			b.series = make([]*liveSeries, 0, n)
			var s SeriesState
			for range n {
				r.series(&s)
				if r.err != nil || b.invalid != nil {
					continue
				}
				if b.invalid = histBins(&s); b.invalid != nil {
					continue
				}
				if k := len(b.series); k > 0 {
					if id, prev := s.id(), b.series[k-1].key.id(); id.compare(prev) <= 0 {
						b.invalid = misordered("series", id, prev)
						continue
					}
				}
				b.series = append(b.series, sl.restore(&s))
			}
		}
	}
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%d trailing bytes after the MBC1 body", len(r.buf))
	}
	return r.err
}

// misordered is the error for a section entry with key k that does not
// sort above the key prev of the entry before it.
func misordered[K comparable](what string, k, prev K) error {
	if k == prev {
		return fmt.Errorf("%s %v is listed twice", what, k)
	}
	return fmt.Errorf("%s %v is out of order, after %v", what, k, prev)
}

// mbc1Reader is the decode cursor: buf is what is left of the body. The
// first malformed field latches err and empties buf, after which every
// read returns zero — so callers decode straight through and check err
// once, and a count read after an error is 0.
type mbc1Reader struct {
	buf []byte
	err error
}

func (r *mbc1Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

var errMBC1Truncated = errors.New("MBC1 body truncated")

func (r *mbc1Reader) uvarint() uint64 {
	// Most fields of a checkpoint fit one byte, and a one-byte varint is
	// always minimal.
	if b := r.buf; len(b) > 0 && b[0] < 0x80 {
		r.buf = b[1:]
		return uint64(b[0])
	}
	return r.uvarintLong()
}

// uvarintLong is uvarint past the one-byte case.
func (r *mbc1Reader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.fail(errMBC1Truncated)
		return 0
	case n < 0:
		r.fail(errors.New("MBC1 varint overflows 64 bits"))
		return 0
	case n > 1 && r.buf[n-1] == 0:
		r.fail(errors.New("MBC1 varint is not minimally encoded"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// uvarints reads len(dst) uvarints in a row, and varints as many zigzag
// varints: what uvarint and varint would read one by one, with the
// one-byte case inline. A reader that takes it inline and calls out past
// it costs more than the compiler inlines, so runs of fields are read
// this way.
func (r *mbc1Reader) uvarints(dst []uint64) {
	for i := range dst {
		if b := r.buf; len(b) > 0 && b[0] < 0x80 {
			r.buf = b[1:]
			dst[i] = uint64(b[0])
		} else {
			dst[i] = r.uvarintLong()
		}
	}
}

func (r *mbc1Reader) varints(dst []int64) {
	for i := range dst {
		var u uint64
		if b := r.buf; len(b) > 0 && b[0] < 0x80 {
			r.buf = b[1:]
			u = uint64(b[0])
		} else {
			u = r.uvarintLong()
		}
		dst[i] = int64(u>>1) ^ -int64(u&1)
	}
}

// uvarintMax reads a uvarint that must fit a narrower field.
func (r *mbc1Reader) uvarintMax(max uint64) uint64 {
	v := r.uvarint()
	if v > max {
		r.fail(fmt.Errorf("MBC1 value %d exceeds its field's maximum %d", v, max))
		return 0
	}
	return v
}

func (r *mbc1Reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a varint into a Go int, rejecting what a 32-bit int cannot
// hold.
func (r *mbc1Reader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("MBC1 value %d overflows int", v))
		return 0
	}
	return int(v)
}

// uint8 reads a varint into a uint8 field — a direction or a counter
// kind — rejecting what the field cannot hold rather than truncating it.
func (r *mbc1Reader) uint8() uint8 {
	v := r.varint()
	if v < 0 || v > math.MaxUint8 {
		r.fail(fmt.Errorf("MBC1 value %d is outside its field's range 0..%d", v, math.MaxUint8))
		return 0
	}
	return uint8(v)
}

// count reads an element count and checks that count elements of at
// least minBytes each still fit in what is left — the bound that keeps a
// forged count from sizing an allocation.
func (r *mbc1Reader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.buf)/minBytes) {
		r.fail(fmt.Errorf("MBC1 count %d exceeds the %d bytes left", n, len(r.buf)))
		return 0
	}
	return int(n)
}

func (r *mbc1Reader) bool() bool {
	if len(r.buf) == 0 {
		r.fail(errMBC1Truncated)
		return false
	}
	b := r.buf[0]
	if b > 1 {
		r.fail(fmt.Errorf("MBC1 bool byte %#x", b))
		return false
	}
	r.buf = r.buf[1:]
	return b == 1
}

func (r *mbc1Reader) float() float64 {
	if len(r.buf) < 8 {
		r.fail(errMBC1Truncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// floats reads a float list into dst's memory when it has room for it,
// and into new memory otherwise. An empty list is dst[:0] — nil for a nil
// dst.
func (r *mbc1Reader) floats(dst []float64) []float64 {
	n := r.count(8)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.float()
	}
	return dst
}

func (r *mbc1Reader) string() string {
	n := r.count(1)
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *mbc1Reader) sample(s *wire.Sample) {
	s.Time = simclock.Time(r.varint())
	s.Port = uint16(r.uvarintMax(math.MaxUint16))
	s.Dir = asic.Direction(r.uint8())
	s.Kind = asic.CounterKind(r.uint8())
	s.Missed = uint32(r.uvarintMax(math.MaxUint32))
	var vals [1 + asic.NumSizeBins]uint64
	r.uvarints(vals[:])
	s.Value = vals[0]
	copy(s.Bins[:], vals[1:])
}

// series decodes one series into s. Its slices are decoded into the
// memory s already holds where it has room, so one SeriesState decodes
// series after series without allocating; a zero s gets new ones.
func (r *mbc1Reader) series(s *SeriesState) {
	s.Rack = uint32(r.uvarintMax(math.MaxUint32))
	s.Port = uint16(r.uvarintMax(math.MaxUint16))
	s.Dir = asic.Direction(r.uint8())
	s.Kind = asic.CounterKind(r.uint8())

	s.Util.SpeedBps = r.uvarint()
	s.Util.N = r.int()
	r.sample(&s.Util.Prev)
	s.Util.Err = r.string()

	s.Seg.HotAbove = r.float()
	s.Seg.ColdBelow = r.float()
	s.Seg.ArmAfter = r.int()
	s.Seg.DisarmAfter = r.int()
	s.Seg.Active = r.bool()
	s.Seg.HotRun = r.int()
	s.Seg.ColdRun = r.int()
	var times [4]int64
	r.varints(times[:])
	s.Seg.RunStart = simclock.Time(times[0])
	s.Seg.Cur.Start = simclock.Time(times[1])
	s.Seg.Cur.End = simclock.Time(times[2])
	s.Seg.PrevEnd = simclock.Time(times[3])
	s.Seg.Closed = r.bool()

	var mk [5]int64
	r.varints(mk[:])
	s.Markov.Counts = [2][2]int64{{mk[0], mk[1]}, {mk[2], mk[3]}}
	s.Markov.N = mk[4]
	s.Markov.Prev = r.bool()
	s.Markov.Primed = r.bool()

	s.Durations.Values = r.floats(s.Durations.Values)
	s.Gaps.Values = r.floats(s.Gaps.Values)

	s.Moments.N = r.varint()
	s.Moments.Sum = r.float()
	s.Moments.Min = r.float()
	s.Moments.Max = r.float()

	n := r.count(1)
	if cap(s.UtilHist) < n {
		s.UtilHist = make([]uint64, n)
	}
	s.UtilHist = s.UtilHist[:n]
	r.uvarints(s.UtilHist)
	s.Points = r.int()
	s.Hot = r.int()
}
