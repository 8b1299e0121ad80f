package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"mburst/internal/analysis"
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

// checkpointCut is the cut a durable checkpoint of sh would save, taken
// without touching disk.
func checkpointCut(sh *Shard) CheckpointState {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cutLocked()
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
				cut = *checkpointCut(sh).Figures
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

// orderOp is one step of a generated schedule that keeps adding racks.
type orderOp struct {
	Op   uint8 // feed a batch (most values), or State / Snapshot / RestoreState
	Rack uint8 // reduced mod 64, so new racks land before, between and after known ones
	Port uint8
	N    uint8
}

// TestSeriesOrderMatchesFullSort: however new racks' first batches
// interleave with cuts, renders and restores, every cut lists its series
// strictly increasing by id and equals the full re-snapshot, and the
// merged order equals the whole table sorted (refOrdered).
func TestSeriesOrderMatchesFullSort(t *testing.T) {
	orderedNow := func(f *LiveFigures) []*liveSeries {
		f.mu.Lock()
		defer f.mu.Unlock()
		return slices.Clone(f.ordered())
	}
	law := func(ops []orderOp) bool {
		f, feed := newCkptFigures(t), newCutFeeder()
		var cuts []FiguresState
		for i, op := range ops {
			switch op.Op % 8 {
			default:
				b := &wire.Batch{Rack: uint32(op.Rack % 64), Epoch: 1}
				for j := 0; j <= int(op.N%3); j++ {
					id := seriesID{Rack: b.Rack, Port: uint16(op.Port%4) + uint16(j), Dir: asic.Direction(op.N % 2), Kind: asic.KindBytes}
					b.Samples = append(b.Samples, feed.next(id))
				}
				f.Handle(b)
				continue
			case 0:
				cut := f.State()
				for k := 1; k < len(cut.Series); k++ {
					if !cut.Series[k-1].id().less(cut.Series[k].id()) {
						t.Errorf("op %d of %d: cut lists %s after %s", i, len(ops), cut.Series[k].id(), cut.Series[k-1].id())
						return false
					}
				}
				if !sameCut(t, fmt.Sprintf("op %d of %d", i, len(ops)), cut, refFiguresState(f)) {
					return false
				}
				cuts = append(cuts, cut)
			case 1:
				f.Snapshot()
			case 2:
				var st FiguresState
				if len(cuts) > 0 {
					st = cuts[int(op.N)%len(cuts)]
				}
				f.RestoreState(st)
			}
			if got, want := orderedNow(f), refOrdered(f); !slices.Equal(got, want) {
				t.Errorf("op %d of %d: merged order of %d series differs from the full sort", i, len(ops), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

// TestStateCutIsImmutable pins the sharing contract on FiguresState: cut
// A, ingest more, cut B — A still equals the copy taken when it was
// returned, and a series holds the same *SeriesState in both exactly
// when it was not fed in between. A reader walks A while Handle runs,
// so -race sees any write through a shared SeriesState.
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
	samePointer(t, "cuts A and B", a, b, func(id seriesID) bool { return id.Rack <= 2 })
	// Consecutive cuts: only what was fed in between is a new pointer.
	samePointer(t, "back-to-back cuts", b, f.State(), func(seriesID) bool { return false })
	f.Handle(feed.clean(3, 8))
	samePointer(t, "cuts around a rack 3 batch", b, f.State(), func(id seriesID) bool { return id.Rack == 3 })
}

// samePointer checks that every series of cut a is the very SeriesState
// cut b holds for it, except the ones fed between the cuts, which must
// be new pointers.
func samePointer(t *testing.T, what string, a, b FiguresState, fed func(seriesID) bool) {
	t.Helper()
	inB := make(map[seriesID]*SeriesState, len(b.Series))
	for _, s := range b.Series {
		inB[s.id()] = s
	}
	for _, sa := range a.Series {
		if same := inB[sa.id()] == sa; same == fed(sa.id()) {
			t.Errorf("%s: %s fed between them %v, same pointer in both %v", what, sa.id(), fed(sa.id()), same)
		}
	}
}

// TestCleanCutSnapshotsNothing: with no series fed since the previous
// cut, State allocates its list of pointers — 8 bytes a series — and
// nothing else, however much the per-series ECDFs hold.
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
		const cuts = 100
		n := uint64(len(first.Series))
		if b := allocatedBy(func() {
			for i := 0; i < cuts; i++ {
				f.State()
			}
		}) / cuts; b > 8*n+64 {
			t.Errorf("%d batches in: a clean cut of %d series allocated %d bytes, want at most %d", batches, n, b, 8*n+64)
		}
		// The back-to-back cuts of a clean shutdown: one snapshot serves all.
		sh, err := NewShard(ShardConfig{Figures: f, Stats: &IngestStats{}})
		if err != nil {
			t.Fatal(err)
		}
		pub, ck := sh.Publish().Figures, checkpointCut(sh).Figures
		if !slices.Equal(pub.Series, first.Series) || !slices.Equal(ck.Series, first.Series) {
			t.Error("Publish and a checkpoint cut on an unfed tap re-snapshotted a series")
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
	lost := *st.Series[0] // the tap shares its cut: edit a copy
	lost.UtilHist = nil
	st.Series[0] = &lost

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
				s := &SeriesState{
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
			before[i] = FiguresState{Samples: st.Samples, Series: slices.Clone(st.Series)}
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
		// Inputs are cuts: the merge must leave them as it found them, and
		// point at their SeriesStates rather than copy them.
		input := make(map[*SeriesState]bool)
		for i := range states {
			if !slices.Equal(states[i].Series, before[i].Series) {
				// refMerge got copies, so only MergeFiguresStates can have moved these.
				t.Errorf("merge reordered input %d in place", i)
				return false
			}
			for _, s := range states[i].Series {
				input[s] = true
			}
		}
		for _, s := range got.Series {
			if !input[s] {
				t.Errorf("merge output holds %s by a pointer no input had", s.id())
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// TestCutSharingMatchesReference is the law of a cut that shares the
// tap's memory: feed, cut, let a consumer append to every slice of that
// cut and of an earlier one, feed more, cut again. Every cut keeps the
// JSON bytes it had when returned, every consumer append keeps what it
// appended, and the tap's cuts equal the full re-snapshot
// (refFiguresState) of a second tap fed the same samples that no
// consumer touched. Restores happen to both taps alike, so values
// restored into one slab sit side by side in memory.
func TestCutSharingMatchesReference(t *testing.T) {
	// appended is what one consumer append made of a cut: the slices
	// append returned, which may share memory with the cut, and their
	// JSON when they were made.
	type appended struct {
		Values [][]float64
		Hists  [][]uint64
		Series []*SeriesState
		json   []byte
	}
	encode := func(a appended) []byte {
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	values := 0 // ECDF values the cuts held: what a cut shares
	law := func(ops []cutOp) bool {
		f, g := newCkptFigures(t), newCkptFigures(t)
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
		var appends []appended
		for i, op := range ops {
			var cut FiguresState
			switch op.Op % 8 {
			default:
				// Two racks of three ports, rarely damaged: a few series
				// fed often enough that bursts close and gaps open.
				op.Rack, op.Port = op.Rack%2, op.Port%2
				if op.Damage >= 16 {
					op.Damage = 3
				}
				b := feed.batch(op)
				f.Handle(b)
				g.Handle(b)
				continue
			case 0:
				cut = f.State()
			case 1:
				cut = sh.Publish().Figures
			case 2:
				if len(cuts) == 0 {
					continue
				}
				st := cuts[int(op.N)%len(cuts)].cut
				f.RestoreState(st)
				g.RestoreState(st)
				cut = f.State()
			}
			if !sameCut(t, fmt.Sprintf("op %d of %d", i, len(ops)), cut, refFiguresState(g)) {
				return false
			}
			data, err := json.Marshal(cut)
			if err != nil {
				t.Fatal(err)
			}
			cuts = append(cuts, taken{cut, data})
			for _, s := range cut.Series {
				values += len(s.Durations.Values) + len(s.Gaps.Values)
			}
			// The consumer appends to every slice of this cut and of an
			// earlier one, taken before more samples came, and keeps what
			// append returns, never writing it back.
			for _, c := range []taken{cuts[len(cuts)-1], cuts[int(op.Port)%len(cuts)]} {
				a := appended{Series: append(c.cut.Series, &SeriesState{Rack: uint32(i)})}
				for _, s := range c.cut.Series {
					a.Values = append(a.Values, append(s.Durations.Values, -float64(i)), append(s.Gaps.Values, -float64(i)-0.5))
					a.Hists = append(a.Hists, append(s.UtilHist, uint64(i)))
				}
				a.json = encode(a)
				appends = append(appends, a)
			}
		}
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
		for i, a := range appends {
			if !bytes.Equal(encode(a), a.json) {
				t.Errorf("consumer append %d of %d changed after it was made", i, len(appends))
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if values < 1000 {
		t.Errorf("the cuts held %d ECDF values in all: too few to tell", values)
	}
}

// soil marks every series of f fed, as if each had taken a sample since
// the last cut, without feeding any.
func soil(f *LiveFigures) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.order {
		s.dirty = true
	}
}

// TestFullCutAllocatesPerSlab: a cut of 5,000 fed series makes its list
// of pointers and two allocations per slab of cutSlabSeries series (the
// SeriesStates and their histograms), not four per series, and still
// equals the full re-snapshot. The collector is off while it counts.
func TestFullCutAllocatesPerSlab(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := fleetCut(t, 5000)
	f := newCkptFigures(t)
	f.RestoreState(*st.Figures)
	n := len(st.Figures.Series)
	want := 1 + 2*((n+cutSlabSeries-1)/cutSlabSeries)
	if allocs := testing.AllocsPerRun(5, func() { soil(f); f.State() }); allocs > float64(want) {
		t.Errorf("a cut of %d fed series made %v allocations, want at most %d", n, allocs, want)
	}
	soil(f)
	sameCut(t, "a full cut", f.State(), refFiguresState(f))
}

// TestNewSeriesAllocatePerChunk: Handle creating 5,000 series — fleetCut's
// racks, ports and directions, one sample each — allocates one chunk of
// slots per seriesChunk series, plus what the series table and the order
// list cost on their own, not four objects per series. The collector is
// off while it counts: a collection's own allocations land in the count.
func TestNewSeriesAllocatePerChunk(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const racks, ports = 50, 50
	feed := newCutFeeder()
	var batches []*wire.Batch
	var keys []liveKey
	for rack := uint32(0); rack < racks; rack++ {
		b := &wire.Batch{Rack: rack, Epoch: 1}
		for port := uint16(0); port < ports; port++ {
			for _, dir := range []asic.Direction{asic.RX, asic.TX} {
				id := seriesID{Rack: rack, Port: port, Dir: dir, Kind: asic.KindBytes}
				b.Samples = append(b.Samples, feed.next(id))
				keys = append(keys, liveKey{Rack: rack, Key: analysis.SeriesKey{Port: port, Dir: dir, Kind: asic.KindBytes}})
			}
		}
		batches = append(batches, b)
	}
	cfg := LiveFiguresConfig{SpeedOf: func(uint32, uint16) uint64 { return figSpeed }}
	var f *LiveFigures
	got := testing.AllocsPerRun(5, func() {
		f, _ = NewLiveFigures(cfg)
		for _, b := range batches {
			f.Handle(b)
		}
	})
	// The tap itself (one), and its table grown to every key and its
	// order list grown by append, as NewLiveFigures and add grow them.
	var table float64
	{
		var m map[liveKey]*liveSeries
		var order []*liveSeries
		table = testing.AllocsPerRun(5, func() {
			m, order = make(map[liveKey]*liveSeries), nil
			for _, k := range keys {
				m[k] = nil
				order = append(order, nil)
			}
		})
	}
	n := len(keys)
	want := float64((n+seriesChunk-1)/seriesChunk) + table + 1
	if got > want {
		t.Errorf("creating %d series made %v allocations, want at most %v (%v of them the table and order list)", n, got, want, table)
	}
	if len(f.series) != n {
		t.Fatalf("the tap holds %d series, want %d", len(f.series), n)
	}
}
