package wire

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// The ingest side of the collector decodes every batch through
// Reader.ReadBatch with SetReuse(true), so once its buffers are warm a
// batch must decode without allocating. (The encode side's guard is
// TestMBW3SteadyEncodeAllocatesNothing.) Each run decodes a whole
// stream, so one allocation on any frame kind reads as at least 1.
const allocRuns = 1_000

// chainStream encodes the fixture chain — several series, one joining
// mid-stream, an empty batch and an epoch bump — and then an empty batch
// that bumps the epoch again, through one Writer.
func chainStream(t *testing.T) []byte {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, b := range append(fixtureChain(), &Batch{Rack: 3, Epoch: 3}) {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return stream.Bytes()
}

// TestReadBatchReuseAllocatesNothing passes one reused Reader over the
// chain stream followed by the legacy MBW1/MBW2 frames, restarting it
// with Reset for every pass.
func TestReadBatchReuseAllocatesNothing(t *testing.T) {
	legacy, err := os.ReadFile("testdata/legacy_parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	stream := append(chainStream(t), legacy...)
	src := bytes.NewReader(stream)
	r := NewReader(src)
	r.SetReuse(true)
	pass := func() {
		src.Reset(stream)
		r.Reset(src)
		for {
			if _, err := r.ReadBatch(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(allocRuns, pass); allocs != 0 {
		t.Errorf("ReadBatch with reuse allocates %v times per pass, want 0", allocs)
	}
}

// TestMBW3DecodeAllocatesNothing holds mbw3Codec.DecodePayload itself to
// zero allocations over the chain stream, restarting the codec every
// pass.
func TestMBW3DecodeAllocatesNothing(t *testing.T) {
	payloads := framePayloads(t, chainStream(t))
	dec := newMBW3Codec()
	var b Batch
	pass := func() {
		dec.Reset()
		for _, p := range payloads {
			if err := dec.DecodePayload(Magic3, p, &b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(allocRuns, pass); allocs != 0 {
		t.Errorf("DecodePayload allocates %v times per pass, want 0", allocs)
	}
}
