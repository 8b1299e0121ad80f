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
//	magic   uint32  "MBW1", "MBW2", "MBW3" or "MBW4" (big-endian on the wire)
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
// cuts steady-state bytes-on-wire several-fold. "MBW4" frames carry the
// MBW3 payload with its chains scoped to the frame's rack: a stream that
// has carried a second rack writes them (see Writer).
//
// MBW3 is the one format written: NewWriter is the only encoder, on the
// socket and on disk. MBW1 and MBW2 are decode-only — Reader detects each
// batch's format from its magic, so streams may interleave formats and
// every directory an older build recorded stays readable forever.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

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

	// rx is where a Reader decoded the batch from; zero for a batch built
	// in process. Writer.WriteBatch reads it to pass the frame through.
	rx received
}

// received is a decoded batch's provenance: the frame it arrived in, and
// the reader chain that frame was decoded on.
type received struct {
	// self is the batch the reader filled: a copy of it is another batch,
	// which is encoded, never passed through.
	self *Batch
	r    *Reader
	// seq is r.seq when the batch was decoded; while the two agree, r has
	// decoded nothing since, so frame and chain still are the batch's.
	seq   uint64
	frame []byte // magic through CRC, in r's buffer
	chain *mbw3Chain
	fresh bool // the payload decoded from zero: a new chain or an epoch change
}

// source returns the chain b was decoded on while it and b's frame are
// still b's, and nil otherwise: for a batch built in process, a copy, a
// legacy frame, or once the reader has read on.
func (b *Batch) source() *mbw3Chain {
	rx := &b.rx
	if rx.self != b || rx.r.seq != rx.seq {
		return nil
	}
	return rx.chain
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
	buf    []byte
	err    error
	paired byte // the next MBW3 column's mode+1, if paired; else 0
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

// mode reads an MBW3 column's mode: the one the column before paired, or
// the low nibble of a byte of its own, whose high nibble pairs the next.
func (r *payloadReader) mode() int {
	if m := r.paired; m > 0 {
		r.paired = 0
		return int(m - 1)
	}
	b := r.byte()
	r.paired = b >> 4 // above modePredicted+1, the next column rejects it
	return int(b & 15)
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

// Writer frames batches onto an io.Writer. Its delta chains are scoped to
// (stream, rack): a stream that has carried one rack is plain MBW3,
// byte-identical to a single-chain encoder's, and once it has carried a
// second every frame is MBW4 — the MBW3 payload, chained on its rack's
// state alone. Use one Writer per connection or file.
//
// A batch a Reader decoded carries the frame it arrived in. When the
// writer's chain for the rack provably holds the state that frame was
// encoded against, WriteBatch appends the frame as received (its magic
// set to the stream's) instead of encoding the batch again; the bytes
// decode to the same batch either way. Otherwise it encodes, and then
// checks whether its chain has come to equal the reader's, so the
// rack's next frame can pass through again.
//
// What a Writer keeps between frames is its chains and its frame buffer;
// the encoder's per-batch scratch is lent to each WriteBatch call (see
// lendCodec), so a fresh Writer costs its chains and nothing else.
type Writer struct {
	w     io.Writer
	buf   []byte
	racks map[uint32]*writerChain
	last  *writerChain   // the chain of the rack written last
	free  []*writerChain // chains Reset released, kept for reuse
	// first is the rack of the stream's first frame, when started; multi
	// is set once a frame has carried another.
	first   uint32
	started bool
	multi   bool
	frames  FrameCounts
}

// writerChain is a Writer's chain for one rack. srcID and srcGen, when
// srcID is not 0, name a Reader chain and generation whose state this one
// equals: a frame that moved that chain from srcGen to srcGen+1 was
// encoded against exactly this state.
type writerChain struct {
	mbw3Chain
	rack          uint32
	srcID, srcGen uint64
}

// FrameCounts counts a Writer's frames by how they were written: passed
// through as received, or encoded.
type FrameCounts struct {
	Passed, Encoded uint64
}

// NewWriter returns a batch writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// NewWriterFormat is NewWriter for callers that still name the format: f
// must be zero or FormatMBW3.
func NewWriterFormat(w io.Writer, f Format) (*Writer, error) {
	if f != 0 && f != FormatMBW3 {
		return nil, fmt.Errorf("wire: %v is read-only; writers speak mbw3", f)
	}
	return NewWriter(w), nil
}

// Reset redirects the writer to a new stream, discarding every delta
// chain — the bytes that follow are exactly those a fresh Writer would
// emit — while keeping internal buffers for reuse. Frames keeps counting.
func (w *Writer) Reset(dst io.Writer) {
	w.w = dst
	for rack, wc := range w.racks {
		wc.reset()
		wc.srcID = 0
		w.free = append(w.free, wc)
		delete(w.racks, rack)
	}
	w.last, w.started, w.multi = nil, false, false
}

// Frames returns how the frames written so far were written.
func (w *Writer) Frames() FrameCounts { return w.frames }

// chain returns the rack's chain, creating it on the rack's first batch.
func (w *Writer) chain(rack uint32) *writerChain {
	if w.last != nil && w.last.rack == rack {
		return w.last
	}
	wc := w.racks[rack]
	if wc == nil {
		if n := len(w.free); n > 0 {
			wc, w.free = w.free[n-1], w.free[:n-1]
		} else {
			wc = &writerChain{}
		}
		wc.rack = rack
		if w.racks == nil {
			w.racks = make(map[uint32]*writerChain)
		}
		w.racks[rack] = wc
	}
	w.last = wc
	return wc
}

// WriteBatch writes one batch, passing its received frame through when
// it can and encoding it otherwise. A batch whose payload would exceed
// MaxBatchPayload fails with ErrBatchTooLarge before anything is written,
// leaving the stream intact.
func (w *Writer) WriteBatch(b *Batch) error {
	wc := w.chain(b.Rack)
	multi := w.multi || w.started && b.Rack != w.first
	magic := Magic3
	if multi {
		magic = Magic4
	}
	src := b.source()
	var frame []byte
	if src != nil && (wc.srcID == src.id && wc.srcGen+1 == src.gen ||
		b.rx.fresh && (!wc.epochKnown || wc.epoch != b.Epoch)) {
		// The frame was encoded against what wc holds: in sync with its
		// reader chain at the generation before, or decoding from zero
		// under both.
		frame = b.rx.frame
		wc.follow(src, b.rx.r.touched, b.rx.fresh)
		wc.srcID, wc.srcGen = src.id, src.gen
		w.frames.Passed++
	} else {
		c := lendCodec(&wc.mbw3Chain)
		buf, err := c.AppendBatch(w.buf[:0], b)
		returnCodec(c)
		if err != nil {
			return err
		}
		w.buf, frame = buf, buf
		wc.srcID = 0
		if src != nil && wc.sameState(src) {
			wc.srcID, wc.srcGen = src.id, src.gen
		}
		w.frames.Encoded++
	}
	binary.BigEndian.PutUint32(frame, magic)
	if !w.started {
		w.first, w.started = b.Rack, true
	}
	w.multi = multi
	_, err := w.w.Write(frame)
	return err
}

// Reader decodes a stream of batches from an io.Reader. Each batch's
// format is detected from its magic, so a stream may interleave MBW1,
// MBW2, MBW3 and MBW4 batches. Decoder state is scoped to this reader:
// MBW3 frames chain on one stream chain, MBW4 frames on their rack's —
// which a rack's first MBW4 frame adopts from the stream chain if every
// MBW3 frame so far carried that rack, and starts empty otherwise. A
// source that is an io.ByteReader (bytes.Buffer, bytes.Reader,
// bufio.Reader) is read as is; any other — a socket, a file — through a
// default-size bufio.Reader the Reader owns, so small frames cost one
// Read of the source per buffer-full. Offset, not the source's position,
// says where the frames read so far end. Like a Writer, a Reader keeps
// its chains and buffers between frames and borrows the decoder's
// per-batch scratch for each ReadBatch call.
type Reader struct {
	src   byteReader
	buf   *bufio.Reader // read-ahead for sources that are not byteReaders
	off   int64
	frame []byte // the frame last read, magic through CRC
	// head holds the magic and length of a frame read while frame is
	// smaller, so that a fresh reader sizes its frame buffer once, when
	// the length is known.
	head [4 + binary.MaxVarintLen64]byte
	// touched is the chain's states entry of each table slot of the MBW3
	// payload last decoded: what a Writer passing that frame through
	// copies into its own chain.
	touched []int
	// stream is the chain MBW3 frames decode on, racks the MBW4 chains.
	// m3Racks counts the racks MBW3 frames have carried, up to 2, and
	// m3Rack is the first.
	stream  *mbw3Chain
	racks   map[uint32]*mbw3Chain
	m3Rack  uint32
	m3Racks int
	// seq counts ReadBatch calls: a batch whose rx.seq is seq is the
	// newest, and owns frame and its chain's state.
	seq   uint64
	reuse bool
	batch Batch
}

type byteReader interface {
	io.Reader
	io.ByteReader
}

// NewReader returns a batch reader over src, buffered unless src is an
// io.ByteReader.
func NewReader(src io.Reader) *Reader {
	r := &Reader{}
	r.Reset(src)
	return r
}

// SetReuse toggles batch reuse: when enabled, every ReadBatch returns
// the same *Batch, whose samples are overwritten by the next call —
// callers that consume each batch before reading the next (the ingest
// hot path) decode without per-batch allocation. Off by default.
func (r *Reader) SetReuse(on bool) { r.reuse = on }

// Reset redirects the reader to a new stream, buffered as for NewReader,
// discarding per-format decoder state (the MBW3 and MBW4 delta chains
// restart, exactly as for a fresh Reader), read-ahead and Offset while
// keeping internal buffers — the read-ahead buffer among them — for
// reuse.
func (r *Reader) Reset(src io.Reader) {
	r.src, _ = src.(byteReader)
	if r.src == nil {
		if r.buf == nil {
			r.buf = bufio.NewReader(nil)
		}
		r.buf.Reset(src)
		r.src = r.buf
	}
	r.off = 0
	r.seq++
	if r.stream != nil {
		r.stream.reset()
	}
	clear(r.racks)
	r.m3Racks = 0
}

// Offset returns the bytes of the source that the frames ReadBatch has
// returned occupy, counted as read (a non-minimal length varint included):
// the end of the last whole frame, where recovery truncates a torn file.
func (r *Reader) Offset() int64 { return r.off }

// ReadBatch reads the next batch. It returns io.EOF at a clean end of
// stream, and ErrCorrupt (wrapped) on framing or checksum failure.
//
// On the collector's ingest loop it allocates nothing once SetReuse(true)
// is on and its buffers are warm (TestReadBatchReuseAllocatesNothing).
func (r *Reader) ReadBatch() (*Batch, error) {
	r.seq++
	if cap(r.frame) < len(r.head) {
		r.frame = r.head[:0]
	}
	frame := r.frame[:4]
	r.frame = frame
	if _, err := io.ReadFull(r.src, frame); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading magic: %w", err)
	}
	magic := binary.BigEndian.Uint32(frame)
	if magic != Magic && magic != Magic2 && magic != Magic3 && magic != Magic4 {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	length, err := r.readLen()
	if err != nil {
		return nil, fmt.Errorf("wire: reading length: %w", err)
	}
	if length > MaxBatchPayload {
		return nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, length)
	}
	at := len(r.frame)
	if err := r.readBody(int(length) + 4); err != nil {
		return nil, fmt.Errorf("wire: reading payload: %w", err)
	}
	frame = r.frame
	payload := frame[at : at+int(length)]
	if want := binary.BigEndian.Uint32(frame[at+int(length):]); want != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	var b *Batch
	if r.reuse {
		b = &r.batch
	} else {
		b = &Batch{}
	}
	b.rx = received{}
	if magic == Magic3 || magic == Magic4 {
		ch, err := r.chain(magic, payload)
		if err != nil {
			b.Samples = b.Samples[:0] // as a rejected payload leaves it
			return nil, err
		}
		c := lendCodec(ch)
		c.touched = r.touched[:0]
		err = c.DecodePayload(magic, payload, b)
		fresh := c.fresh
		r.touched, c.touched = c.touched, nil
		returnCodec(c)
		if err != nil {
			return nil, err
		}
		if magic == Magic3 && r.m3Racks < 2 && (r.m3Racks == 0 || b.Rack != r.m3Rack) {
			r.m3Rack = b.Rack
			r.m3Racks++
		}
		b.rx = received{self: b, r: r, seq: r.seq, frame: frame, chain: ch, fresh: fresh}
	} else if err := decodeLegacyPayload(payload, magic == Magic2, b); err != nil {
		return nil, err
	}
	r.off += int64(len(frame))
	return b, nil
}

// chain returns the chain an MBW3 or MBW4 payload decodes on, creating
// it for a stream's first MBW3 frame or a rack's first MBW4 frame.
func (r *Reader) chain(magic uint32, payload []byte) (*mbw3Chain, error) {
	if magic == Magic3 {
		if r.stream == nil {
			r.stream = newMBW3Chain()
		}
		return r.stream, nil
	}
	rack, n := binary.Uvarint(payload)
	if n <= 0 || rack > 1<<32-1 {
		return nil, fmt.Errorf("%w: mbw4 header", ErrCorrupt)
	}
	ch := r.racks[uint32(rack)]
	if ch == nil {
		if r.m3Racks == 1 && r.m3Rack == uint32(rack) {
			ch = r.stream
		} else {
			ch = newMBW3Chain()
		}
		if r.racks == nil {
			r.racks = make(map[uint32]*mbw3Chain)
		}
		r.racks[uint32(rack)] = ch
	}
	return ch, nil
}

// readLen reads the frame-length uvarint, appending its bytes to r.frame.
func (r *Reader) readLen() (uint64, error) {
	var x uint64
	var s uint
	for n := 0; n < binary.MaxVarintLen64; n++ {
		c, err := r.src.ReadByte()
		if err != nil {
			return 0, err
		}
		r.frame = append(r.frame, c)
		if c < 0x80 {
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, ErrCorrupt
}

// readBody appends a frame's n bytes of payload and CRC to r.frame. A
// buffer already big enough takes one ReadFull; a smaller one grows as
// the bytes arrive, each step to at most twice its size or 4 KiB, so a
// header that lies about its length costs only what the peer sent.
func (r *Reader) readBody(n int) error {
	buf := r.frame
	n += len(buf)
	for len(buf) < n {
		buf = slices.Grow(buf, min(n, max(2*cap(buf), 4096))-len(buf))
		m, err := io.ReadFull(r.src, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		r.frame = buf
		if err != nil {
			return err
		}
	}
	return nil
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
