package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// roundTripArchive drives one seeded schedule through the codec the way
// a collector does: agent streams, one per rack, and streams that carry
// several racks (MBW4) write generated batches; each stream's Reader
// decodes them; and one archive Writer takes every decoded batch,
// passing its frame through when its chain is in step. It returns the
// archive's bytes and how many frames it passed through.
func roundTripArchive(seed int64) ([]byte, uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	gens := make([]*rackGen, 2+rng.Intn(3))
	for r := range gens {
		gens[r] = newRackGen(rng, uint32(r))
	}
	type stream struct {
		racks []uint32
		buf   bytes.Buffer
		w     *Writer
		r     *Reader
	}
	var streams []*stream
	open := func(racks ...uint32) {
		s := &stream{racks: racks}
		s.w, s.r = NewWriter(&s.buf), NewReader(&s.buf)
		s.r.SetReuse(rng.Intn(2) == 0)
		streams = append(streams, s)
	}
	for r := range gens {
		open(uint32(r))
	}
	open(0, 1)
	var archive bytes.Buffer
	aw := NewWriter(&archive)
	for step := 0; step < 150; step++ {
		if rng.Intn(40) == 0 { // an agent reconnects: a fresh stream
			open(uint32(rng.Intn(len(gens))))
		}
		s := streams[rng.Intn(len(streams))]
		in := gens[s.racks[rng.Intn(len(s.racks))]].batch(rng, 1)
		if err := s.w.WriteBatch(in); err != nil {
			return nil, 0, err
		}
		b, err := s.r.ReadBatch()
		if err != nil {
			return nil, 0, err
		}
		if !sameBatch(in, b) {
			return nil, 0, fmt.Errorf("step %d: a stream decodes to something else than it carried", step)
		}
		if err := aw.WriteBatch(b); err != nil {
			return nil, 0, err
		}
	}
	return archive.Bytes(), aw.Frames().Passed, nil
}

// TestConcurrentRoundTripsMatchSequential runs eight schedules at once,
// each on its own goroutine, several times over, and requires every
// archive to be byte for byte the one the same schedule writes alone.
// Codec scratch is lent per call from a pool every goroutine shares, so
// this is what shows no call shares scratch with another; under the race
// detector (scripts/ci.sh runs it at one and two CPUs) it also shows the
// lending itself is sound.
func TestConcurrentRoundTripsMatchSequential(t *testing.T) {
	const workers, rounds = 8, 4
	want := make([][]byte, workers)
	var passed uint64
	for i := range want {
		var err error
		var p uint64
		if want[i], p, err = roundTripArchive(int64(i)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		passed += p
	}
	if passed == 0 {
		t.Fatal("no schedule passed a frame through")
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				got, _, err := roundTripArchive(int64(i))
				if err == nil && !bytes.Equal(got, want[i]) {
					err = fmt.Errorf("the archive differs from the sequential run's (%d bytes, want %d)", len(got), len(want[i]))
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("seed %d concurrently: %v", i, err)
		}
	}
}

// TestLentScratchStampsAreFresh: an encoder marks each series entry of a
// chain with the stamp of the batch that opened it, and lent scratch
// meets every chain. Here a stream's second batch is encoded on other
// scratch than its first, scratch whose own history would, counted per
// codec, give the second batch the first one's stamp: the stream must
// still decode to what was written.
func TestLentScratchStampsAreFresh(t *testing.T) {
	batches := pollStream(2, 6, 1)
	ch := newMBW3Chain() // the stream's chain, encoded on two codecs
	a, b := &mbw3Codec{ch: ch}, &mbw3Codec{ch: ch}
	stream, err := a.AppendBatch(nil, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	b.stamp = a.stamp - 1 // one batch behind a, were stamps counted per codec
	if stream, err = b.AppendBatch(stream, batches[1]); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(stream))
	for i, want := range batches {
		got, err := r.ReadBatch()
		if err != nil || !sameBatch(want, got) {
			t.Fatalf("batch %d decodes to something else (err %v)", i, err)
		}
	}
}
