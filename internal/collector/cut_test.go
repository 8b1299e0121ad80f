package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// The tests here pin the state-cut cache as laws rather than schedules:
// whatever the interleaving of Handle, cuts and restores, a cut equals
// the full re-snapshot (refFiguresState), and a cut never changes once
// returned.

// cutOp is one step of a generated schedule against a LiveFigures; every
// field is reduced modulo its range where it is used.
type cutOp struct {
	Op         uint8 // feed a batch (most values), or cut / restore
	Rack, Port uint8
	Dir, N     uint8
	Damage     uint8
}

// cutFeeder generates byte-counter samples: per series a cumulative
// counter on a 25 µs grid of a 10G port that alternates cold and hot
// stretches, so bursts open and close.
type cutFeeder struct {
	at map[seriesID]cutCursor
}

// cutCursor is where one generated series stands.
type cutCursor struct {
	seq   int
	bytes uint64
}

func newCutFeeder() *cutFeeder {
	return &cutFeeder{at: make(map[seriesID]cutCursor)}
}

func (g *cutFeeder) next(id seriesID) wire.Sample {
	c := g.at[id]
	frac := 0.1
	if (c.seq/3)%2 == 1 {
		frac = 0.95
	}
	c.seq++
	c.bytes += uint64(frac * 31250)
	g.at[id] = c
	return wire.Sample{
		Time: simclock.Epoch.Add(simclock.Micros(int64(c.seq) * 25)),
		Port: id.Port, Dir: id.Dir, Kind: id.Kind, Value: c.bytes,
	}
}

// clean is n undamaged samples of rack's port 1 TX.
func (g *cutFeeder) clean(rack uint32, n int) *wire.Batch {
	b := &wire.Batch{Rack: rack, Epoch: 1}
	for j := 0; j < n; j++ {
		b.Samples = append(b.Samples, g.next(seriesID{Rack: rack, Port: 1, Dir: asic.TX, Kind: asic.KindBytes}))
	}
	return b
}

// batch is the delivery a cutOp describes, damage included.
func (g *cutFeeder) batch(op cutOp) *wire.Batch {
	b := &wire.Batch{Rack: uint32(op.Rack % 5), Epoch: 1}
	// Two neighbouring ports per batch, so one delivery dirties more
	// than one series and first touches land between any two cuts.
	for _, port := range []uint16{uint16(op.Port % 6), uint16(op.Port%6) + 1} {
		id := seriesID{Rack: b.Rack, Port: port, Dir: asic.Direction(op.Dir % 2), Kind: asic.KindBytes}
		for j := 0; j <= int(op.N%5); j++ {
			s := g.next(id)
			switch op.Damage % 16 {
			case 0: // time stands still: the series latches
				s.Time = simclock.Epoch
			case 1: // counter regresses: the series latches
				s.Value = 0
			case 2: // not a byte counter: skipped, nothing gets dirty
				s.Kind = asic.KindDrops
			}
			b.Samples = append(b.Samples, s)
		}
	}
	return b
}

// sameCut reports whether two states agree both as values and as the
// bytes a checkpoint would carry (which also tells nil from empty).
func sameCut(t *testing.T, what string, got, want FiguresState) bool {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gj, wj) {
		t.Errorf("%s: cut diverges from the full re-snapshot\n got %s\nwant %s", what, gj, wj)
		return false
	}
	return true
}

// viaJSON deep-copies a state the way a checkpoint would.
func viaJSON(t *testing.T, st FiguresState) FiguresState {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var out FiguresState
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStateCutMatchesFullResnapshot(t *testing.T) {
	law := func(ops []cutOp) bool {
		f := newCkptFigures(t)
		sh, err := NewShard(ShardConfig{Figures: f, Stats: &IngestStats{}})
		if err != nil {
			t.Fatal(err)
		}
		feed := newCutFeeder()
		type taken struct {
			cut  FiguresState
			json []byte
		}
		var cuts []taken
		for i, op := range ops {
			var cut FiguresState
			switch op.Op % 10 {
			default:
				f.Handle(feed.batch(op))
				continue
			case 0:
				cut = f.State()
			case 1:
				cut = sh.Publish().Figures
			case 2:
				cut = *sh.CheckpointState().Figures
			case 3:
				// Restore an earlier cut (or nothing), half the time with
				// its series reversed: RestoreState takes any order.
				var st FiguresState
				if len(cuts) > 0 {
					st = viaJSON(t, cuts[int(op.N)%len(cuts)].cut)
				}
				if op.Dir%2 == 1 {
					for a, b := 0, len(st.Series)-1; a < b; a, b = a+1, b-1 {
						st.Series[a], st.Series[b] = st.Series[b], st.Series[a]
					}
				}
				f.RestoreState(st)
				cut = f.State()
			}
			if !sameCut(t, fmt.Sprintf("op %d of %d", i, len(ops)), cut, refFiguresState(f)) {
				return false
			}
			data, err := json.Marshal(cut)
			if err != nil {
				t.Fatal(err)
			}
			cuts = append(cuts, taken{cut, data})
		}
		// Nothing that happened after a cut was taken reached into it.
		for i, c := range cuts {
			now, err := json.Marshal(c.cut)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(now, c.json) {
				t.Errorf("cut %d of %d changed after it was returned", i, len(cuts))
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestStateCutIsImmutable pins the sharing contract on FiguresState: cut
// A, ingest more, cut B — A still equals the copy taken when it was
// returned, and wherever A and B share a slice the series did not move.
// A reader walks A while Handle runs, so -race sees any write through a
// shared slice.
func TestStateCutIsImmutable(t *testing.T) {
	f, feed := newCkptFigures(t), newCutFeeder()
	for i := 0; i < 12; i++ {
		for rack := uint32(1); rack <= 4; rack++ {
			f.Handle(feed.clean(rack, 8))
		}
	}
	a := f.State()
	copyA := viaJSON(t, a)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sum float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range a.Series {
				for _, v := range s.Durations.Values {
					sum += v
				}
				for _, v := range s.Gaps.Values {
					sum += v
				}
				for _, n := range s.UtilHist {
					sum += float64(n)
				}
			}
		}
	}()
	// Racks 1 and 2 move on (and rack 9 appears); racks 3 and 4 do not.
	for i := 12; i < 40; i++ {
		f.Handle(feed.clean(1, 8))
		f.Handle(feed.clean(2, 8))
		f.Handle(feed.clean(9, 8))
		if i%7 == 0 {
			f.State() // intermediate cuts re-snapshot and replace, never edit
		}
	}
	close(stop)
	wg.Wait()
	b := f.State()

	if !reflect.DeepEqual(a, copyA) {
		t.Fatal("cut A changed after more ingest and later cuts")
	}
	sameCut(t, "cut B", b, refFiguresState(f))
	bByID := make(map[seriesID]SeriesState, len(b.Series))
	for _, s := range b.Series {
		bByID[s.id()] = s
	}
	shared := 0
	for _, sa := range a.Series {
		sb := bByID[sa.id()]
		if &sa.UtilHist[0] != &sb.UtilHist[0] {
			if sa.Rack > 2 {
				t.Errorf("%s was not fed between the cuts but was re-snapshotted", sa.id())
			}
			continue
		}
		shared++
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s shares a slice between cuts A and B but differs", sa.id())
		}
	}
	if shared != 2 {
		t.Errorf("%d series shared between the cuts, want the 2 that were not fed", shared)
	}
}

// TestCleanCutSnapshotsNothing: with no series fed since the previous
// cut, State allocates the flat copy and nothing else, however much the
// per-series ECDFs hold.
func TestCleanCutSnapshotsNothing(t *testing.T) {
	for _, batches := range []int{20, 400} {
		f, feed := newCkptFigures(t), newCutFeeder()
		for i := 0; i < batches; i++ {
			for rack := uint32(1); rack <= 8; rack++ {
				f.Handle(feed.clean(rack, 8))
			}
		}
		first := f.State()
		if n := len(first.Series[0].Durations.Values); n < batches/4 {
			t.Fatalf("fixture too small to tell: %d burst durations after %d batches", n, batches)
		}
		if allocs := testing.AllocsPerRun(20, func() { f.State() }); allocs != 1 {
			t.Errorf("%d batches in: a clean cut made %v allocations, want 1", batches, allocs)
		}
		// The back-to-back cuts of a clean shutdown: one snapshot serves all.
		sh, err := NewShard(ShardConfig{Figures: f, Stats: &IngestStats{}})
		if err != nil {
			t.Fatal(err)
		}
		pub, ck := sh.Publish().Figures, sh.CheckpointState().Figures
		if &pub.Series[0].UtilHist[0] != &first.Series[0].UtilHist[0] ||
			&ck.Series[0].UtilHist[0] != &first.Series[0].UtilHist[0] {
			t.Error("Publish and CheckpointState on an unfed tap re-snapshotted a series")
		}
	}
}

// TestRestoreSeriesWithoutHistogram: a state whose series carries no
// utilization histogram (checkpoint bytes are outside input) must not
// arm a panic for that series' next samples.
func TestRestoreSeriesWithoutHistogram(t *testing.T) {
	f, feed := newCkptFigures(t), newCutFeeder()
	f.Handle(feed.clean(1, 8))
	st := f.State()
	st.Series = append([]SeriesState(nil), st.Series...)
	st.Series[0].UtilHist = nil

	g := newCkptFigures(t)
	g.RestoreState(st)
	more := feed.clean(1, 8)
	g.Handle(more) // indexed utilHist[-1] before
	f.Handle(more)
	got, want := g.State().Series[0], f.State().Series[0]
	if len(got.UtilHist) != len(want.UtilHist) {
		t.Fatalf("histogram re-made with %d bins, want the configured %d", len(got.UtilHist), len(want.UtilHist))
	}
	if got.Points != want.Points || !reflect.DeepEqual(got.Durations, want.Durations) {
		t.Errorf("series did not continue after restore: %+v, want %+v", got, want)
	}
}

func TestMergeFiguresStatesMatchesSortedUnion(t *testing.T) {
	law := func(shards [][]cutOp, sortedInputs bool) bool {
		states := make([]FiguresState, len(shards))
		for i, ops := range shards {
			states[i].Samples = uint64(len(ops))
			seen := make(map[seriesID]bool)
			for _, op := range ops {
				s := SeriesState{
					Rack: uint32(op.Rack % 16), Port: uint16(op.Port % 4),
					Dir: asic.Direction(op.Dir % 2), Kind: asic.CounterKind(op.Damage % 2),
					Points: int(op.N),
				}
				// Mostly rack-disjoint across inputs, as a placement
				// makes them, with the odd violation left in.
				if op.Op%8 != 0 {
					s.Rack = s.Rack*uint32(len(shards)) + uint32(i)
				}
				if !seen[s.id()] {
					seen[s.id()] = true
					states[i].Series = append(states[i].Series, s)
				}
			}
			if sortedInputs {
				states[i].Series = canonicalOrder(states[i].Series)
			}
		}
		before := make([]FiguresState, len(states))
		for i, st := range states {
			before[i] = FiguresState{Samples: st.Samples, Series: append([]SeriesState(nil), st.Series...)}
		}
		got, gerr := MergeFiguresStates(states...)
		want, werr := refMergeFiguresStates(before...)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Errorf("merge error %v, reference %v", gerr, werr)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("merge diverges from concatenate-and-sort:\n got %+v\nwant %+v", got, want)
			return false
		}
		// Inputs are cuts: the merge must leave them as it found them.
		for i := range states {
			if !reflect.DeepEqual(states[i].Series, before[i].Series) {
				// refMerge got copies, so only MergeFiguresStates can have moved these.
				t.Errorf("merge reordered input %d in place", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
