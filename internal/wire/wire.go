// Package wire defines the sample data model and the binary wire/file
// format the collection framework uses to move counter samples from switch
// CPUs to the distributed collector service (§4.1: "The CPU batches the
// samples before sending them to a distributed collector service").
//
// Design goals, in order: compact (a 2-minute campaign at 25 µs holds ~5M
// samples per counter; the paper stored 250 GB for 720 such intervals),
// self-describing enough to be replayed later, and corruption-evident
// (each batch carries a CRC-32 so a torn TCP stream or truncated file is
// detected rather than silently mis-parsed).
//
// Format. A stream is a sequence of batches:
//
//	magic   uint32  "MBW1", "MBW2" or "MBW3" (big-endian on the wire)
//	length  uvarint  byte length of the payload that follows
//	payload []byte   varint-encoded records or columns (see below)
//	crc32   uint32   IEEE CRC of the payload
//
// "MBW1" payload layout: a batch header (rack id, record count) followed
// by records. Record integers are delta-encoded against the previous record
// where it pays (timestamps, values), because successive samples of a
// cumulative counter differ by small amounts at microsecond granularity.
//
// "MBW2" batches additionally carry the agent's restart Epoch as a
// uvarint between the rack id and the record count, so collectors can
// detect agent restarts and reject stale or replayed batches. A batch
// with Epoch 0 — an agent that has never restarted — is framed as "MBW1",
// byte-identical to streams written before epochs existed; readers accept
// both framings interleaved.
//
// "MBW3" (see mbw3.go) reorganizes the payload into per-series columns:
// cumulative counters become zigzag-varint deltas chained across batches
// (the first batch of a stream or epoch carries absolutes), timestamps a
// delta-of-delta chain, and every column is run-length compressed. It
// cuts steady-state bytes-on-wire several-fold.
//
// MBW3 is the one format written: NewWriter is the only encoder, on the
// socket and on disk. MBW1 and MBW2 are decode-only — Reader detects each
// batch's format from its magic, so streams may interleave formats and
// every directory an older build recorded stays readable forever.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// Magic identifies a batch boundary (epoch-less framing).
const Magic uint32 = 0x4d425731 // "MBW1"

// Magic2 identifies a batch carrying an agent restart epoch.
const Magic2 uint32 = 0x4d425732 // "MBW2"

// MaxBatchPayload bounds a single batch's payload; a reader rejects
// anything larger as corruption rather than allocating unboundedly, and
// Writer.WriteBatch refuses to emit one with ErrBatchTooLarge.
const MaxBatchPayload = 16 << 20

// ErrCorrupt is returned when framing, CRC, or field validation fails.
var ErrCorrupt = errors.New("wire: corrupt batch")

// ErrBatchTooLarge is returned by Writer.WriteBatch for a batch whose
// payload would exceed MaxBatchPayload or MaxBatchSamples —
// the write-side counterpart of the reader's oversize rejection, so an
// oversized batch fails loudly at the sender instead of poisoning the
// stream for every reader.
var ErrBatchTooLarge = errors.New("wire: batch too large")

// Sample is one counter observation.
//
// For cumulative counters (bytes, packets, drops, size bins) Value and
// Bins hold the running totals at Time; consumers difference successive
// samples. For the buffer-peak register, Value holds the clear-on-read
// peak in bytes since the previous sample.
type Sample struct {
	// Time is when the read completed. The paper's framework guarantees
	// a correct timestamp even when sampling intervals are missed, which
	// is what keeps throughput computable (Table 1 caption).
	Time simclock.Time
	// Port is the switch port index (ignored for KindBufferPeak, which is
	// a switch-wide register).
	Port uint16
	// Dir is the counter direction (RX/TX); meaningless for drops and
	// buffer peak, which are TX-side by definition.
	Dir asic.Direction
	// Kind is the counter family.
	Kind asic.CounterKind
	// Missed is how many scheduled sampling intervals elapsed without a
	// sample since the previous completed poll (0 when on schedule).
	Missed uint32
	// Value is the counter value (see type comment).
	Value uint64
	// Bins holds the size-bin counters when Kind == KindSizeBins.
	Bins [asic.NumSizeBins]uint64
}

// Batch is a group of samples from one rack, the unit of transfer and of
// file framing.
type Batch struct {
	Rack uint32
	// Epoch is the sending agent's restart generation: 0 for an agent
	// that has never restarted, incremented on every crash/restart.
	// Collectors use it to discard batches from superseded agent
	// incarnations (see collector.EpochGate).
	Epoch   uint32
	Samples []Sample
}

// SkipTo is the error a batch callback returns to ask the iterator
// feeding it to deliver next the batch at position N+1, counting a
// stream's batches from 1 — the fs.SkipDir idiom. The batches up to N
// that were not delivered yet are passed over, undelivered; a SkipTo at
// or below the current position skips nothing. An iterator that does not
// honour SkipTo returns it as its error, so a caller relying on the skip
// fails rather than seeing batches it asked to pass over.
type SkipTo uint64

func (n SkipTo) Error() string {
	return fmt.Sprintf("wire: skip to batch %d not honoured", uint64(n))
}

// decodeLegacyPayload parses an MBW1/MBW2 batch payload into b, reusing
// b.Samples' capacity. hasEpoch selects the MBW2 header layout, which
// carries the agent epoch between rack id and record count.
func decodeLegacyPayload(payload []byte, hasEpoch bool, b *Batch) error {
	r := payloadReader{buf: payload}
	rack := r.uvarint()
	var epoch uint64
	if hasEpoch {
		epoch = r.uvarint()
		if epoch == 0 || epoch > 1<<32-1 {
			return fmt.Errorf("%w: epoch %d out of range", ErrCorrupt, epoch)
		}
	}
	n := r.uvarint()
	if r.err != nil {
		return fmt.Errorf("%w: header", ErrCorrupt)
	}
	// A record is at least 5 bytes; reject absurd counts before
	// allocating.
	if n > uint64(len(payload)) {
		return fmt.Errorf("%w: record count %d exceeds payload", ErrCorrupt, n)
	}
	b.Rack, b.Epoch = uint32(rack), uint32(epoch)
	b.Samples = b.Samples[:0]
	if n > 0 && uint64(cap(b.Samples)) < n {
		b.Samples = make([]Sample, 0, n)
	}
	var prevTime int64
	var prevValue uint64
	for i := uint64(0); i < n; i++ {
		var s Sample
		prevTime += r.varint()
		s.Time = simclock.Time(prevTime)
		s.Port = uint16(r.uvarint())
		dk := r.byte()
		s.Dir = asic.Direction(dk & 1)
		s.Kind = asic.CounterKind(dk >> 1)
		s.Missed = uint32(r.uvarint())
		prevValue += uint64(r.varint())
		s.Value = prevValue
		if s.Kind == asic.KindSizeBins {
			for j := range s.Bins {
				s.Bins[j] = r.uvarint()
			}
		}
		if r.err != nil {
			return fmt.Errorf("%w: record %d", ErrCorrupt, i)
		}
		b.Samples = append(b.Samples, s)
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf))
	}
	return nil
}

type payloadReader struct {
	buf []byte
	err error
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *payloadReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.err = ErrCorrupt
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Writer frames batches onto an io.Writer as MBW3. The codec's delta
// state is scoped to this writer, so use one Writer per connection or
// file.
type Writer struct {
	w   io.Writer
	c   *mbw3Codec
	buf []byte
}

// NewWriter returns a batch writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, c: newMBW3Codec()} }

// NewWriterFormat is NewWriter for callers that still name the format: f
// must be zero or FormatMBW3.
func NewWriterFormat(w io.Writer, f Format) (*Writer, error) {
	if f != 0 && f != FormatMBW3 {
		return nil, fmt.Errorf("wire: %v is read-only; writers speak mbw3", f)
	}
	return NewWriter(w), nil
}

// Reset redirects the writer to a new stream, discarding the MBW3 delta
// chains — the bytes that follow are exactly those a fresh Writer would
// emit — while keeping internal buffers for reuse.
func (w *Writer) Reset(dst io.Writer) {
	w.w = dst
	w.c.Reset()
}

// WriteBatch encodes and writes one batch. A batch whose payload would
// exceed MaxBatchPayload fails with ErrBatchTooLarge before anything is
// written, leaving the stream intact.
func (w *Writer) WriteBatch(b *Batch) error {
	buf, err := w.c.AppendBatch(w.buf[:0], b)
	if err != nil {
		return err
	}
	w.buf = buf
	_, err = w.w.Write(w.buf)
	return err
}

// Reader decodes a stream of batches from an io.Reader. Each batch's
// format is detected from its magic, so a stream may interleave MBW1,
// MBW2, and MBW3 batches; per-format decoder state (MBW3 delta chains)
// is scoped to this reader.
type Reader struct {
	r       io.Reader
	hdr     [4]byte
	payload []byte
	m3      *mbw3Codec
	reuse   bool
	batch   Batch
}

// NewReader returns a batch reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// SetReuse toggles batch reuse: when enabled, every ReadBatch returns
// the same *Batch, whose samples are overwritten by the next call —
// callers that consume each batch before reading the next (the ingest
// hot path) decode without per-batch allocation. Off by default.
func (r *Reader) SetReuse(on bool) { r.reuse = on }

// Reset redirects the reader to a new stream, discarding per-format
// decoder state (MBW3 delta chains restart, exactly as for a fresh
// Reader) while keeping internal buffers for reuse.
func (r *Reader) Reset(src io.Reader) {
	r.r = src
	if r.m3 != nil {
		r.m3.Reset()
	}
}

// ReadBatch reads the next batch. It returns io.EOF at a clean end of
// stream, and ErrCorrupt (wrapped) on framing or checksum failure.
//
// On the collector's ingest loop it allocates nothing once SetReuse(true)
// is on and its buffers are warm (TestReadBatchReuseAllocatesNothing).
func (r *Reader) ReadBatch() (*Batch, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading magic: %w", err)
	}
	magic := binary.BigEndian.Uint32(r.hdr[:])
	if magic != Magic && magic != Magic2 && magic != Magic3 {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	length, err := r.readLen()
	if err != nil {
		return nil, fmt.Errorf("wire: reading length: %w", err)
	}
	if length > MaxBatchPayload {
		return nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, length)
	}
	if uint64(cap(r.payload)) < length {
		r.payload = make([]byte, length)
	}
	payload := r.payload[:length]
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, fmt.Errorf("wire: reading payload: %w", err)
	}
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return nil, fmt.Errorf("wire: reading crc: %w", err)
	}
	if want := binary.BigEndian.Uint32(r.hdr[:]); want != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	var b *Batch
	if r.reuse {
		b = &r.batch
	} else {
		b = &Batch{}
	}
	if magic == Magic3 {
		if r.m3 == nil {
			r.m3 = newMBW3Codec()
		}
		err = r.m3.DecodePayload(magic, payload, b)
	} else {
		err = decodeLegacyPayload(payload, magic == Magic2, b)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// readLen reads the frame-length uvarint byte-by-byte, staging through
// r.hdr (free at this point in the frame) so the hot path does not
// allocate a buffer per read.
func (r *Reader) readLen() (uint64, error) {
	var x uint64
	var s uint
	b := r.hdr[:1]
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if _, err := io.ReadFull(r.r, b); err != nil {
			return 0, err
		}
		if b[0] < 0x80 {
			return x | uint64(b[0])<<s, nil
		}
		x |= uint64(b[0]&0x7f) << s
		s += 7
	}
	return 0, ErrCorrupt
}

// uvarintLen returns the encoded size of x as a uvarint, without
// materializing the bytes.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintLen returns the encoded size of v as a zigzag varint.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// payloadSize is the byte length of b's MBW1/MBW2 row payload.
func payloadSize(b *Batch) int {
	n := uvarintLen(uint64(b.Rack))
	if b.Epoch != 0 {
		n += uvarintLen(uint64(b.Epoch))
	}
	n += uvarintLen(uint64(len(b.Samples)))
	var prevTime int64
	var prevValue uint64
	for i := range b.Samples {
		s := &b.Samples[i]
		n += varintLen(s.Time.Nanoseconds() - prevTime)
		prevTime = s.Time.Nanoseconds()
		n += uvarintLen(uint64(s.Port))
		n++ // dir|kind byte
		n += uvarintLen(uint64(s.Missed))
		n += varintLen(int64(s.Value - prevValue))
		prevValue = s.Value
		if s.Kind == asic.KindSizeBins {
			for _, v := range s.Bins {
				n += uvarintLen(v)
			}
		}
	}
	return n
}

// EncodedSize returns the framed size of b in the MBW1/MBW2 row format.
// It is a nominal size: no writer emits those bytes. Unlike an MBW3 size
// (which depends on stream state) it is a pure function of batch content,
// so every process in the pipeline computes the same number — the tracing
// cost model depends on that to position spans identically on the client,
// the collector, and the campaign recorder.
func EncodedSize(b *Batch) int {
	p := payloadSize(b)
	return 4 + uvarintLen(uint64(p)) + p + 4
}
