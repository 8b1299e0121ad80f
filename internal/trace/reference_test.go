package trace

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/shard"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// refIterFleet is IterFleet as it stood before it streamed: every batch
// of every shard deep-copied into a per-rack map, then handed over racks
// ascending, each rack's batches in its shard's admission order. A
// placement violation fails it before fn sees any batch.
func refIterFleet(dir string, fn func(b *wire.Batch) error) error {
	if fn == nil {
		return fmt.Errorf("trace: nil batch handler")
	}
	meta, ok, err := FleetMeta(dir)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("trace: %s holds no fleet campaign", dir)
	}
	pl := meta.Placement
	perRack := make(map[uint32][]wire.Batch)
	for id, name := range pl.Shards {
		err := IterArchive(filepath.Join(dir, name), func(b *wire.Batch) error {
			if pl.ShardOf(b.Rack) != id {
				return fmt.Errorf("trace: placement violation: shard %d archived rack %d owned by shard %d",
					id, b.Rack, pl.ShardOf(b.Rack))
			}
			perRack[b.Rack] = append(perRack[b.Rack], wire.Batch{
				Rack: b.Rack, Epoch: b.Epoch,
				Samples: append([]wire.Sample(nil), b.Samples...),
			})
			return nil
		})
		if err != nil {
			return err
		}
	}
	racks := make([]uint32, 0, len(perRack))
	for r := range perRack {
		racks = append(racks, r)
	}
	sort.Slice(racks, func(i, j int) bool { return racks[i] < racks[j] })
	for _, r := range racks {
		for i := range perRack[r] {
			if err := fn(&perRack[r][i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// fleetWriter lays a fleet directory down batch by batch: one archive per
// placement shard, and the campaign.json that makes it a fleet on close.
type fleetWriter struct {
	t   *testing.T
	dir string
	pl  shard.Placement
	ws  []*ArchiveWriter
}

func newFleetWriter(t *testing.T, pl shard.Placement) *fleetWriter {
	t.Helper()
	f := &fleetWriter{t: t, dir: t.TempDir(), pl: pl}
	for s := range pl.Shards {
		w, err := CreateArchive(filepath.Join(f.dir, pl.Name(s)), ArchiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		f.ws = append(f.ws, w)
	}
	return f
}

// write appends b to shard s's archive, whether or not s owns its rack.
func (f *fleetWriter) write(s int, b *wire.Batch) {
	f.t.Helper()
	if err := f.ws[s].WriteBatch(b); err != nil {
		f.t.Fatal(err)
	}
}

// cut ends shard s's open segment, as a checkpoint does.
func (f *fleetWriter) cut(s int) {
	f.t.Helper()
	if err := f.ws[s].Sync(); err != nil {
		f.t.Fatal(err)
	}
}

// resume closes shard s's archive and reopens it for appending, as a
// restarted shard does.
func (f *fleetWriter) resume(s int) {
	f.t.Helper()
	if err := f.ws[s].Close(); err != nil {
		f.t.Fatal(err)
	}
	w, _, err := ResumeArchive(filepath.Join(f.dir, f.pl.Name(s)), ArchiveConfig{})
	if err != nil {
		f.t.Fatal(err)
	}
	f.ws[s] = w
}

// close seals every archive, writes campaign.json and returns the fleet
// directory.
func (f *fleetWriter) close() string {
	f.t.Helper()
	for _, w := range f.ws {
		if err := w.Close(); err != nil {
			f.t.Fatal(err)
		}
	}
	meta := validMeta()
	meta.Placement = &f.pl
	if err := WriteFleetMeta(f.dir, meta); err != nil {
		f.t.Fatal(err)
	}
	return f.dir
}

// fleetBatch is rack's k-th batch: n samples in time order after its
// batch k-1's.
func fleetBatch(rng *rand.Rand, rack uint32, k, n int) *wire.Batch {
	b := &wire.Batch{Rack: rack, Epoch: 1}
	for j := 0; j < n; j++ {
		b.Samples = append(b.Samples, wire.Sample{
			Time:  simclock.Epoch.Add(simclock.Micros(int64(k*8+j) * 25)),
			Port:  uint16(1 + rng.Intn(3)),
			Dir:   asic.TX,
			Kind:  asic.KindBytes,
			Value: uint64(rng.Intn(1 << 20)),
		})
	}
	return b
}

// genFleet lays down a fleet directory drawn from rng: 1–4 shards under a
// uniform placement, some of them owning no rack that sends (an empty
// store), and the racks' batches admitted in a random interleaving, each
// rack's in time order. Before a write a store may end its segment or be
// closed and resumed. With two or more shards, one case in three plants
// one batch in a shard that does not own its rack; misrouted says so.
func genFleet(t *testing.T, rng *rand.Rand) (dir string, misrouted bool) {
	t.Helper()
	pl, err := shard.Uniform(1+rng.Intn(4), rng.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	silent := make([]bool, pl.NumShards())
	for s := range silent {
		silent[s] = rng.Intn(3) == 0
	}
	left := map[uint32]int{} // batches each rack sends
	var racks []uint32
	for r := uint32(0); r < 12; r++ {
		if !silent[pl.ShardOf(r)] && rng.Intn(4) != 0 {
			racks = append(racks, r)
			left[r] = rng.Intn(4)
		}
	}
	var admitted []*wire.Batch
	for sent := map[uint32]int{}; len(racks) > 0; {
		i := rng.Intn(len(racks))
		r := racks[i]
		if sent[r] == left[r] {
			racks = append(racks[:i], racks[i+1:]...)
			continue
		}
		admitted = append(admitted, fleetBatch(rng, r, sent[r], rng.Intn(5)))
		sent[r]++
	}
	misroute := -1
	if pl.NumShards() > 1 && rng.Intn(3) == 0 {
		misroute = rng.Intn(len(admitted) + 1)
	}
	f := newFleetWriter(t, pl)
	for i := 0; i <= len(admitted); i++ {
		if i == misroute {
			r := uint32(rng.Intn(12))
			f.write((pl.ShardOf(r)+1+rng.Intn(pl.NumShards()-1))%pl.NumShards(), fleetBatch(rng, r, 99, 1))
		}
		if i == len(admitted) {
			break
		}
		s := pl.ShardOf(admitted[i].Rack)
		switch rng.Intn(8) {
		case 0:
			f.cut(s)
		case 1:
			f.resume(s)
		}
		f.write(s, admitted[i])
	}
	return f.close(), misroute >= 0
}

// byRack groups batches by rack, each rack's in the order given.
func byRack(bs []wire.Batch) map[uint32][]wire.Batch {
	out := map[uint32][]wire.Batch{}
	for _, b := range bs {
		out[b.Rack] = append(out[b.Rack], b)
	}
	return out
}

// TestIterFleetMatchesReference holds IterFleet to refIterFleet over
// generated fleets: the same batches with each rack's in the same order
// (so the same multiset), handed over in storage order — each shard's
// archive in turn, as IterArchive reads it — and, for a misrouted batch,
// the same error, after exactly the batches stored before it.
func TestIterFleetMatchesReference(t *testing.T) {
	var cases, misrouted, empty, multi int
	law := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir, bad := genFleet(t, rng)
		cases++
		var got, want, stored []wire.Batch
		err := IterFleet(dir, appendBatch(&got))
		refErr := refIterFleet(dir, appendBatch(&want))
		meta, _, _ := FleetMeta(dir)
		for _, name := range meta.Placement.Shards {
			n := len(stored)
			if err := IterArchive(filepath.Join(dir, name), appendBatch(&stored)); err != nil {
				t.Fatal(err)
			}
			if len(stored) == n {
				empty++
			}
		}
		if meta.Placement.NumShards() > 1 {
			multi++
		}
		if bad {
			misrouted++
			if err == nil || refErr == nil || err.Error() != refErr.Error() || !strings.Contains(err.Error(), "placement violation") {
				t.Errorf("seed %d: misrouted batch: err %v, reference %v", seed, err, refErr)
				return false
			}
			if len(got) >= len(stored) || len(got) > 0 && !reflect.DeepEqual(got, stored[:len(got)]) {
				t.Errorf("seed %d: misrouted batch: handed over %d batches, not a prefix of the %d stored", seed, len(got), len(stored))
				return false
			}
			return true
		}
		if err != nil || refErr != nil {
			t.Errorf("seed %d: err %v, reference %v", seed, err, refErr)
			return false
		}
		if !reflect.DeepEqual(byRack(got), byRack(want)) {
			t.Errorf("seed %d: %d batches differ from the reference's %d, per rack", seed, len(got), len(want))
			return false
		}
		if !reflect.DeepEqual(got, stored) {
			t.Errorf("seed %d: %d batches not in storage order", seed, len(got))
			return false
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if misrouted == 0 || empty == 0 || multi == 0 || misrouted == cases {
		t.Errorf("%d cases: %d misrouted, %d empty stores, %d multi-shard; the law is vacuous on one side", cases, misrouted, empty, multi)
	}
}
