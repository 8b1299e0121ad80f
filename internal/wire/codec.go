package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Format identifies a wire format version. Only FormatMBW3 is written;
// the other two name what Reader still decodes and what an older
// directory's campaign.json or archive.json may record.
type Format uint8

const (
	// FormatMBW1 is the original epoch-less row framing (read-only).
	FormatMBW1 Format = 1
	// FormatMBW2 is the epoch-aware row framing (read-only). Its writers
	// framed a zero-epoch batch as MBW1, byte-identical to the format
	// before epochs existed, and carried a non-zero epoch under the MBW2
	// magic.
	FormatMBW2 Format = 2
	// FormatMBW3 is the columnar delta format: per-series zigzag-varint
	// deltas of cumulative counters with run-length-compressed columns.
	// Deltas chain across batches (the first batch of a stream — or of a
	// new epoch — carries absolutes), so an MBW3 codec is stateful: its
	// chains are scoped to one connection or segment file, and to one rack
	// within it (the MBW4 framing).
	FormatMBW3 Format = 3
)

// String returns the name campaign.json and archive.json record ("mbw1",
// "mbw2", "mbw3").
func (f Format) String() string {
	switch f {
	case FormatMBW1:
		return "mbw1"
	case FormatMBW2:
		return "mbw2"
	case FormatMBW3:
		return "mbw3"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// ParseFormat parses a format name as String renders it.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "mbw1":
		return FormatMBW1, nil
	case "mbw2":
		return FormatMBW2, nil
	case "mbw3":
		return FormatMBW3, nil
	}
	return 0, fmt.Errorf("wire: unknown format %q (want mbw1, mbw2, or mbw3)", s)
}

// appendFrame wraps payload in the batch framing: magic, length, payload,
// CRC, growing dst once.
func appendFrame(dst []byte, magic uint32, payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], magic)
	dst = slices.Grow(dst, 4+binary.MaxVarintLen64+len(payload)+4)
	dst = append(dst, hdr[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(payload))
	return append(dst, hdr[:]...)
}
