package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

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
// Gate entries, per-rack counts and series keep the canonical order the
// cut gave them.
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

// rest decodes the body past archived_batches into st and returns the
// first malformed field's error, or an error for trailing bytes.
func (r *mbc1Reader) rest(st *CheckpointState) error {
	if n := r.count(mbc1MinGateBytes); n > 0 {
		st.Gate = make([]RackEpochState, n)
		for i := range st.Gate {
			g := &st.Gate[i]
			g.Rack = uint32(r.uvarintMax(math.MaxUint32))
			g.Epoch = uint32(r.uvarintMax(math.MaxUint32))
			g.LastTime = simclock.Time(r.varint())
			g.Seen = r.bool()
		}
	}
	if r.bool() {
		in := &Snapshot{}
		in.Batches = r.uvarint()
		in.Samples = r.uvarint()
		in.LastSampleNanos = r.varint()
		if n := r.count(mbc1MinPerRackBytes); n > 0 {
			in.PerRack = make([]RackCount, n)
			for i := range in.PerRack {
				in.PerRack[i].Rack = uint32(r.uvarintMax(math.MaxUint32))
				in.PerRack[i].Samples = r.uvarint()
			}
		}
		st.Ingest = in
	}
	if r.bool() {
		f := &FiguresState{}
		f.Samples = r.uvarint()
		if n := r.count(mbc1MinSeriesBytes); n > 0 {
			slab := make([]SeriesState, n)
			f.Series = make([]*SeriesState, n)
			for i := range slab {
				r.series(&slab[i])
				f.Series[i] = &slab[i]
			}
		}
		st.Figures = f
	}
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%d trailing bytes after the MBC1 body", len(r.buf))
	}
	return r.err
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
	if len(r.buf) > 0 && r.buf[0] < 0x80 {
		v := uint64(r.buf[0])
		r.buf = r.buf[1:]
		return v
	}
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
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
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

func (r *mbc1Reader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.float()
	}
	return vs
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
	s.Dir = asic.Direction(r.int())
	s.Kind = asic.CounterKind(r.int())
	s.Missed = uint32(r.uvarintMax(math.MaxUint32))
	s.Value = r.uvarint()
	for i := range s.Bins {
		s.Bins[i] = r.uvarint()
	}
}

func (r *mbc1Reader) series(s *SeriesState) {
	s.Rack = uint32(r.uvarintMax(math.MaxUint32))
	s.Port = uint16(r.uvarintMax(math.MaxUint16))
	s.Dir = asic.Direction(r.int())
	s.Kind = asic.CounterKind(r.int())

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
	s.Seg.RunStart = simclock.Time(r.varint())
	s.Seg.Cur.Start = simclock.Time(r.varint())
	s.Seg.Cur.End = simclock.Time(r.varint())
	s.Seg.PrevEnd = simclock.Time(r.varint())
	s.Seg.Closed = r.bool()

	for i := range s.Markov.Counts {
		for j := range s.Markov.Counts[i] {
			s.Markov.Counts[i][j] = r.varint()
		}
	}
	s.Markov.N = r.varint()
	s.Markov.Prev = r.bool()
	s.Markov.Primed = r.bool()

	s.Durations.Values = r.floats()
	s.Gaps.Values = r.floats()

	s.Moments.N = r.varint()
	s.Moments.Sum = r.float()
	s.Moments.Min = r.float()
	s.Moments.Max = r.float()

	if n := r.count(1); n > 0 {
		s.UtilHist = make([]uint64, n)
		for i := range s.UtilHist {
			s.UtilHist[i] = r.uvarint()
		}
	}
	s.Points = r.int()
	s.Hot = r.int()
}
