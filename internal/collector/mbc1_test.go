package collector

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/wire"
)

// saveCheckpoint writes st to path as the shard's checkpoint does: MBC1,
// through WriteFileAtomic.
func saveCheckpoint(path string, st CheckpointState) error {
	return WriteFileAtomic(path, appendCheckpoint(nil, &st))
}

// decodeMBC1 decodes a whole MBC1 file (magic included).
func decodeMBC1(data []byte) (CheckpointState, error) {
	r, err := openMBC1(data)
	if err != nil {
		return CheckpointState{}, err
	}
	st := CheckpointState{ArchivedBatches: r.uvarint()}
	if err := r.rest(&st); err != nil {
		return CheckpointState{}, err
	}
	return st, nil
}

// TestMBC1MinimumSizes re-derives the decoder's allocation bounds from
// the encoder: an all-zero element is the shortest one there is.
func TestMBC1MinimumSizes(t *testing.T) {
	empty := len(appendCheckpoint(nil, &CheckpointState{}))
	for _, c := range []struct {
		what string
		st   CheckpointState
		flag int // presence bytes the section itself adds
		min  int
	}{
		{"gate entry", CheckpointState{Gate: make([]RackEpochState, 1)}, 0, mbc1MinGateBytes},
		{"per-rack count", CheckpointState{Ingest: &Snapshot{PerRack: make([]RackCount, 1)}},
			len(appendCheckpoint(nil, &CheckpointState{Ingest: &Snapshot{}})) - empty, mbc1MinPerRackBytes},
		{"series", CheckpointState{Figures: &FiguresState{Series: []*SeriesState{{}}}},
			len(appendCheckpoint(nil, &CheckpointState{Figures: &FiguresState{}})) - empty, mbc1MinSeriesBytes},
	} {
		if got := len(appendCheckpoint(nil, &c.st)) - empty - c.flag; got != c.min {
			t.Errorf("an all-zero %s encodes to %d bytes, the decoder assumes at least %d", c.what, got, c.min)
		}
	}
}

// TestMBC1RejectsDamage: a truncated, bit-flipped or count-inflated MBC1
// file is an error naming the path — never a panic, never a state, never
// an allocation beyond a constant multiple of the file.
func TestMBC1RejectsDamage(t *testing.T) {
	golden, err := os.ReadFile(binaryCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	damaged := mbc1Forged()
	for n := len(CheckpointMagic); n < len(golden); n++ {
		damaged["cut to "+strconv.Itoa(n)+" bytes"] = golden[:n]
		if n+4 <= len(golden) {
			damaged["cut to "+strconv.Itoa(n)+" bytes and sealed"] = mbc1Seal(append(golden[:n:n], 0, 0, 0, 0))
		}
		flipped := append([]byte(nil), golden...)
		flipped[n] ^= 1 << (n % 8)
		damaged["bit flipped in byte "+strconv.Itoa(n)] = flipped
	}
	path := filepath.Join(t.TempDir(), CheckpointFileName)
	// A two-byte spelling of a value that fits one byte: the one-byte
	// fast path must leave the minimal-encoding rule to the full decoder.
	for what, data := range mbc1NonMinimal() {
		if err := checkMBC1(t, data); err == nil || !strings.Contains(err.Error(), "not minimally encoded") {
			t.Errorf("%s: decode error %v, want it not minimally encoded", what, err)
		}
		damaged[what] = data
	}
	for what, data := range damaged {
		if bytes.Equal(data, golden) {
			continue // sealing a cut at the body's end rebuilds the golden
		}
		if checkMBC1(t, data) == nil {
			t.Errorf("%s: decoded", what)
			continue
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := LoadCheckpoint(path); err == nil || ok || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: LoadCheckpoint ok=%v err=%v, want an error naming %s", what, ok, err, path)
		}
	}
}

// mbc1NonMinimal re-spells, one at a time, the fields of a small MBC1
// file that hold 1 — the mark, the figures' sample count, the series
// count and the series' rack — as the two-byte varint 0x81 0x00, and
// reseals each file so the checksum lets it through.
func mbc1NonMinimal() map[string][]byte {
	st := CheckpointState{ArchivedBatches: 1,
		Figures: &FiguresState{Samples: 1, Series: []*SeriesState{{Rack: 1, UtilHist: make([]uint64, utilBins)}}}}
	file := appendCheckpoint(nil, &st)
	// The body opens archived_batches, #gate, has_ingest, has_figures,
	// samples, #series, rack: one byte each here.
	const mark = len(CheckpointMagic) + 1
	out := make(map[string][]byte)
	for name, at := range map[string]int{"archived_batches": mark, "figures samples": mark + 4,
		"series count": mark + 5, "series rack": mark + 6} {
		if file[at] != 1 {
			panic(fmt.Sprintf("mbc1NonMinimal: %s is byte %d, not 1", name, file[at]))
		}
		respelled := append(append(append([]byte(nil), file[:at]...), 0x81, 0x00), file[at+1:]...)
		out[name+" spelled 0x81 0x00"] = mbc1Seal(respelled)
	}
	return out
}

// TestMBC1EncodeReusesItsBuffer: encoding into a buffer that already
// grew to size allocates nothing, which is what lets a steady-state
// checkpoint cost its cut and no more.
func TestMBC1EncodeReusesItsBuffer(t *testing.T) {
	st, _, err := LoadCheckpoint(binaryCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	buf := appendCheckpoint(nil, &st)
	if allocs := testing.AllocsPerRun(20, func() { buf = appendCheckpoint(buf[:0], &st) }); allocs != 0 {
		t.Errorf("re-encoding into a grown buffer made %v allocations, want 0", allocs)
	}
}

// TestCheckpointEncodingsRestoreAlike is the equivalence law between the
// encoding this tree writes and the one it only reads: for generated
// feed/cut schedules, every cut saved as legacy JSON and as MBC1 loads
// to the same state, taps restored from the two cut alike (and like the
// pipeline that never stopped), and stay alike under whatever is fed
// next.
func TestCheckpointEncodingsRestoreAlike(t *testing.T) {
	dir := t.TempDir()
	viaFile := func(save func(string, CheckpointState) error, name string, st CheckpointState) CheckpointState {
		path := filepath.Join(dir, name)
		if err := save(path, st); err != nil {
			t.Fatal(err)
		}
		back, ok, err := LoadCheckpoint(path)
		if err != nil || !ok {
			t.Fatalf("loading %s: ok=%v err=%v", name, ok, err)
		}
		return back
	}
	law := func(ops []cutOp) bool {
		live := restoreTap(t, CheckpointState{})
		var fromJSON, fromMBC1 *ckptTap
		feed := newCutFeeder()
		alike := func(i int) bool {
			if fromJSON == nil {
				return true
			}
			want := refFiguresState(live.figures)
			j, b := fromJSON.cut(uint64(i)), fromMBC1.cut(uint64(i))
			if !reflect.DeepEqual(j, b) || !reflect.DeepEqual(*b.Figures, want) ||
				!reflect.DeepEqual(b.Gate, live.gate.State()) || !reflect.DeepEqual(*b.Ingest, live.stats.Snapshot()) {
				t.Errorf("op %d of %d: restored taps diverge\n JSON %+v\n MBC1 %+v\n live %+v", i, len(ops), j, b, want)
				return false
			}
			return true
		}
		for i, op := range ops {
			if op.Op%10 >= 2 {
				b := feed.batch(op)
				for _, p := range []*ckptTap{live, fromJSON, fromMBC1} {
					if p != nil {
						p.gate.Handle(b)
					}
				}
				continue
			}
			if !alike(i) {
				return false
			}
			cut := live.cut(uint64(i))
			j := viaFile(refSaveCheckpointJSON, "legacy.json", cut)
			b := viaFile(saveCheckpoint, CheckpointFileName, cut)
			// Against the cut as bytes: a gate with no racks yet is cut
			// empty and loads nil.
			if !reflect.DeepEqual(j, b) || !bytes.Equal(appendCheckpoint(nil, &b), appendCheckpoint(nil, &cut)) {
				t.Errorf("op %d of %d: the encodings load differently\n JSON %+v\n MBC1 %+v\n  cut %+v", i, len(ops), j, b, cut)
				return false
			}
			fromJSON, fromMBC1 = restoreTap(t, j), restoreTap(t, b)
		}
		return alike(len(ops))
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// TestMBC1CarriesNonFiniteFloats: JSON could not write an accumulator
// that had overflowed to ±Inf (the save failed); MBC1 stores float bits,
// so such a state — and a NaN's payload — survives, restores, and keeps
// accumulating exactly like the tap it was cut from.
func TestMBC1CarriesNonFiniteFloats(t *testing.T) {
	live := restoreTap(t, CheckpointState{})
	feed := newCutFeeder()
	for i := 0; i < 12; i++ {
		live.gate.Handle(feed.clean(1, 8))
	}
	cut := live.cut(12)
	s := *cut.Figures.Series[0] // the tap shares its cut: edit a copy
	cut.Figures.Series[0] = &s
	s.Moments.Sum, s.Moments.Max, s.Moments.Min = math.Inf(1), math.Inf(1), math.Inf(-1)
	s.Seg.ColdBelow = math.Copysign(0, -1)
	s.Gaps.Values = append([]float64{math.Float64frombits(0x7ff8_0000_dead_beef)}, s.Gaps.Values...)

	path := filepath.Join(t.TempDir(), CheckpointFileName)
	if err := saveCheckpoint(path, cut); err != nil {
		t.Fatal(err)
	}
	back, _, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appendCheckpoint(nil, &back), appendCheckpoint(nil, &cut)) {
		t.Fatal("non-finite floats did not survive the file bit for bit")
	}
	if m := back.Figures.Series[0].Moments; !math.IsInf(m.Sum, 1) || !math.IsInf(m.Max, 1) || !math.IsInf(m.Min, -1) {
		t.Fatalf("moments came back as %+v", m)
	}
	direct, restored := restoreTap(t, cut), restoreTap(t, back)
	for i := 0; i < 6; i++ {
		b := feed.clean(1, 8)
		direct.gate.Handle(b)
		restored.gate.Handle(b)
	}
	d, r := direct.cut(18), restored.cut(18)
	if !bytes.Equal(appendCheckpoint(nil, &r), appendCheckpoint(nil, &d)) {
		t.Error("a tap restored from the file diverges from one restored from memory")
	}
	if !math.IsInf(r.Figures.Series[0].Moments.Sum, 1) {
		t.Errorf("moments sum is %v after more traffic, want +Inf", r.Figures.Series[0].Moments.Sum)
	}
}

// fleetCut is the checkpoint of a shard holding about series byte
// series: 50 racks of two-direction ports, each series fed 24 samples
// whose bursts open and close, so every part of a series — durations and
// gaps included — has content.
func fleetCut(t testing.TB, series int) CheckpointState {
	t.Helper()
	const racks, perSeries = 50, 24
	tap := &ckptTap{stats: &IngestStats{}}
	var err error
	if tap.figures, err = NewLiveFigures(LiveFiguresConfig{SpeedOf: func(uint32, uint16) uint64 { return 10_000_000_000 }}); err != nil {
		t.Fatal(err)
	}
	tap.gate = NewEpochGate(tap.stats.Wrap(tap.figures.Wrap(nil)), nil)
	feed := newCutFeeder()
	ports := (series + 2*racks - 1) / (2 * racks)
	for range perSeries {
		for rack := uint32(0); rack < racks; rack++ {
			b := &wire.Batch{Rack: rack, Epoch: 1}
			for port := uint16(0); port < uint16(ports); port++ {
				for _, dir := range []asic.Direction{asic.RX, asic.TX} {
					b.Samples = append(b.Samples, feed.next(seriesID{Rack: rack, Port: port, Dir: dir, Kind: asic.KindBytes}))
				}
			}
			tap.gate.Handle(b)
		}
	}
	return tap.cut(uint64(racks * perSeries))
}

// TestRestoreStateAllocatesPerSlab: restoring 5,000 series makes one
// allocation per kind of part (series, converters, segmenters,
// histograms, ECDF values) plus the table, not several per series, and
// the restored tap cuts back to what it was restored from.
func TestRestoreStateAllocatesPerSlab(t *testing.T) {
	st := fleetCut(t, 5000)
	if n := len(st.Figures.Series); n < 5000 {
		t.Fatalf("generated %d series, want 5,000", n)
	}
	f := newCkptFigures(t)
	if allocs := testing.AllocsPerRun(5, func() { f.RestoreState(*st.Figures) }); allocs >= 200 {
		t.Errorf("RestoreState of %d series made %v allocations, want fewer than 200", len(st.Figures.Series), allocs)
	}
	sameCut(t, "restored 5,000 series", refFiguresState(f), *st.Figures)
}

// BenchmarkLoadCheckpoint reads, decodes and validates a 5,000-series
// shard checkpoint: the load half of a resume.
func BenchmarkLoadCheckpoint(b *testing.B) {
	st := fleetCut(b, 5000)
	path := filepath.Join(b.TempDir(), CheckpointFileName)
	if err := saveCheckpoint(path, st); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := LoadCheckpoint(path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fi.Size()), "file_bytes")
}

// BenchmarkRestoreState restores a 5,000-series figures state into a
// tap: the restore half of a resume.
func BenchmarkRestoreState(b *testing.B) {
	st := fleetCut(b, 5000)
	f, err := NewLiveFigures(LiveFiguresConfig{SpeedOf: func(uint32, uint16) uint64 { return 10_000_000_000 }})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		f.RestoreState(*st.Figures)
	}
}
