package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mburst/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/checkpoint_v1.mbc")

// Three checkpoints of one state are committed under testdata/:
//
//   - checkpoint_parent.json was written by the last commit that
//     indented its checkpoints (b3e8392), by its durable pipeline fed the
//     first fixtureCkptRounds rounds of fixtureTraffic and then
//     Checkpoint()ed.
//   - checkpoint_compact.json is the same state as the last commit that
//     wrote JSON (23abd10 … 0403f19) saved it: one line.
//   - checkpoint_v1.mbc is the same state as saveCheckpoint writes it
//     now, in MBC1 (go test -run TestParentCheckpoint -update).
//
// None of the JSON ones can be regenerated from this tree, which is the
// point: checkpoints already on disk must stay resumable. From here on
// checkpoint_v1.mbc is the parent-written fixture later changes must
// keep loading.
const (
	parentCheckpoint  = "testdata/checkpoint_parent.json"
	compactCheckpoint = "testdata/checkpoint_compact.json"
	binaryCheckpoint  = "testdata/checkpoint_v1.mbc"
	fixtureCkptRounds = 12
)

// fixtureTraffic is the campaign behind the fixtures: per round one
// batch from each of racks 1–3 (healthy series whose bursts open and
// close) and one ckptBatch from rack 4 (whose counter regresses in round
// 1, so the checkpoint carries a latched series too).
func fixtureTraffic(rounds int) []*wire.Batch {
	feed := newCutFeeder()
	var out []*wire.Batch
	for i := 0; i < rounds; i++ {
		for rack := uint32(1); rack <= 3; rack++ {
			out = append(out, feed.clean(rack, 8))
		}
		out = append(out, ckptBatch(4, 1, i))
	}
	return out
}

// TestParentCheckpointStaysResumable: every checkpoint a parent binary
// may have left behind — indented JSON, one-line JSON, MBC1 — loads to
// the same state; that state re-saves as exactly the committed MBC1
// bytes (the encoding is deterministic) and reloads unchanged; and a
// collector resumed from any of the three, each sitting under the name
// this tree uses, ends up where one that never died does.
func TestParentCheckpointStaysResumable(t *testing.T) {
	st, ok, err := LoadCheckpoint(parentCheckpoint)
	if err != nil || !ok {
		t.Fatalf("loading %s: ok=%v err=%v", parentCheckpoint, ok, err)
	}
	resaved := filepath.Join(t.TempDir(), CheckpointFileName)
	if err := saveCheckpoint(resaved, st); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(binaryCheckpoint, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(binaryCheckpoint)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("saveCheckpoint no longer writes the bytes of %s", binaryCheckpoint)
	}
	compact, err := os.ReadFile(compactCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(got) > len(compact) {
		t.Errorf("MBC1 form is %d bytes of the one-line JSON's %d, want under half", len(got), len(compact))
	}

	// The parent was killed killRounds in: its archive holds that much,
	// its last checkpoint is the fixture.
	const killRounds, rounds, perRound = 17, 30, 4
	traffic := fixtureTraffic(rounds)
	oracle, oFigures, oStats := newDurable(t, &memArchive{}, filepath.Join(t.TempDir(), CheckpointFileName), 1000)
	for _, b := range traffic {
		oracle.Handle(b)
	}
	for _, fixture := range []string{parentCheckpoint, compactCheckpoint, binaryCheckpoint} {
		again, ok, err := LoadCheckpoint(fixture)
		if err != nil || !ok {
			t.Fatalf("loading %s: ok=%v err=%v", fixture, ok, err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Errorf("%s loads to a different state than %s", fixture, parentCheckpoint)
		}
		arch := &memArchive{}
		for _, b := range traffic[:killRounds*perRound] {
			if err := arch.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		// Whatever the encoding, the file goes by this tree's name: the
		// upgrade an operator does with mv.
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), CheckpointFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, figures, stats := newDurable(t, arch, path, 1000)
		rep, err := d.Resume(arch.iter)
		if err != nil {
			t.Fatal(err)
		}
		wantRep := ResumeReport{
			HadCheckpoint:     true,
			CheckpointBatches: fixtureCkptRounds * perRound,
			ArchiveBatches:    killRounds * perRound,
			Replayed:          (killRounds - fixtureCkptRounds) * perRound,
		}
		if rep != wantRep {
			t.Fatalf("%s: resume report %+v, want %+v", fixture, rep, wantRep)
		}
		for _, b := range traffic[killRounds*perRound:] {
			d.Handle(b)
		}
		if !reflect.DeepEqual(figures.State(), oFigures.State()) {
			t.Errorf("%s: figures state diverges from the uninterrupted run", fixture)
		}
		if !reflect.DeepEqual(stats.Snapshot(), oStats.Snapshot()) {
			t.Errorf("%s: ingest stats diverge: %+v vs %+v", fixture, stats.Snapshot(), oStats.Snapshot())
		}
		if !reflect.DeepEqual(d.gate.State(), oracle.gate.State()) {
			t.Errorf("%s: gate state diverges", fixture)
		}
	}
}

// TestLoadCheckpointRejectsSeriesWithoutHistogram: a checkpoint that
// lost a series' util_hist fails the load — and so Resume — with an
// error naming the series, whatever the encoding.
func TestLoadCheckpointRejectsSeriesWithoutHistogram(t *testing.T) {
	st, _, err := LoadCheckpoint(binaryCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	lost := *st.Figures.Series[2]
	lost.UtilHist = nil
	st.Figures.Series[2] = &lost
	for _, form := range []string{"null", "[]", "absent", "mbc1"} {
		broken, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		switch form {
		case "[]":
			broken = bytes.Replace(broken, []byte(`"util_hist":null`), []byte(`"util_hist":[]`), 1)
		case "absent":
			broken = bytes.Replace(broken, []byte(`"util_hist":null,`), nil, 1)
		case "mbc1":
			broken = appendCheckpoint(nil, &st)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, CheckpointFileName)
		if err := os.WriteFile(path, broken, 0o644); err != nil {
			t.Fatal(err)
		}
		const series = "rack 3 " // Series[2] of the fixture
		if _, ok, err := LoadCheckpoint(path); err == nil || ok || !strings.Contains(err.Error(), series) {
			t.Errorf("util_hist %s: LoadCheckpoint ok=%v err=%v, want an error naming %q", form, ok, err, series)
		}
		d, _, _ := newDurable(t, &memArchive{}, path, 1000)
		if _, err := d.Resume(nil); err == nil {
			t.Errorf("util_hist %s: Resume armed the broken checkpoint", form)
		}
	}
}

// invalidSeriesCheckpoints are files that decode but list series no
// collector could have cut, each with what its load error must say
// besides the file name: a JSON null where a series should be, one
// series listed twice in either encoding or out of canonical order, and
// a histogram with other than utilBins bins. Every other series is valid, utilBins bins and all,
// so each file fails for the one reason it names.
func invalidSeriesCheckpoints() map[string]struct {
	data []byte
	want string
} {
	// The one-series file of mbc1Forged, its series repeated: the count
	// byte goes from 1 to 2 and the series' bytes follow twice.
	st := CheckpointState{Figures: &FiguresState{Samples: 2, Series: []*SeriesState{{Rack: 9, UtilHist: make([]uint64, utilBins)}}}}
	file := appendCheckpoint(nil, &st)
	const seriesCount = len(CheckpointMagic) + 6
	series := file[seriesCount+1 : len(file)-4]
	dup := append(append([]byte(nil), file[:seriesCount]...), 2)
	dup = mbc1Seal(append(append(append(dup, series...), series...), 0, 0, 0, 0))
	hist := `"util_hist":[0` + strings.Repeat(",0", utilBins-1) + `]`
	valid := `{"rack":1,"port":1,"dir":1,"kind":0,` + hist + `}`
	rack9 := `{"rack":9,` + hist + `}`
	return map[string]struct {
		data []byte
		want string
	}{
		"null series":              {[]byte(`{"archived_batches":1,"figures":{"samples":1,"series":[null]}}`), "series 0 is null"},
		"null before a series":     {[]byte(`{"archived_batches":1,"figures":{"samples":1,"series":[null,` + valid + `]}}`), "series 0 is null"},
		"null after a series":      {[]byte(`{"archived_batches":1,"figures":{"samples":1,"series":[` + valid + `,null]}}`), "series 1 is null"},
		"series twice, JSON":       {[]byte(`{"figures":{"series":[` + rack9 + `,` + rack9 + `]}}`), "series rack 9 port0/rx/bytes is listed twice"},
		"series unsorted, in JSON": {[]byte(`{"figures":{"series":[` + rack9 + `,` + valid + `,` + rack9 + `]}}`), "series rack 1 port1/tx/bytes is out of order, after rack 9 port0/rx/bytes"},
		"series twice, MBC1":       {dup, "series rack 9 port0/rx/bytes is listed twice"},
		"three bins, JSON":         {[]byte(`{"figures":{"series":[` + valid + `,{"rack":9,"util_hist":[0,0,0]}]}}`), "series rack 9 port0/rx/bytes has 3 util_hist bins, want 20"},
	}
}

// TestLoadCheckpointRejectsInvalidSeries: a null series or a repeated
// one fails the load — and so Resume — with an error naming the file and
// the entry, never a panic. A restore would have kept one copy of a
// repeated series and the fleet merge would have blamed a second shard
// for the other, even in a fleet of one.
func TestLoadCheckpointRejectsInvalidSeries(t *testing.T) {
	for what, c := range invalidSeriesCheckpoints() {
		path := filepath.Join(t.TempDir(), CheckpointFileName)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok, err := LoadCheckpoint(path)
		if err == nil || ok || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadCheckpoint ok=%v err=%v, want an error naming %s and saying %q", what, ok, err, path, c.want)
		}
		d, _, _ := newDurable(t, &memArchive{}, path, 1000)
		if _, err := d.Resume(nil); err == nil {
			t.Errorf("%s: Resume armed the checkpoint", what)
		}
	}
}

// ckptTap is the checkpointed part of a pipeline — gate, ingest stats,
// figures — outside a Shard, so a test can restore it from any
// CheckpointState and cut it again.
type ckptTap struct {
	gate    *EpochGate
	stats   *IngestStats
	figures *LiveFigures
}

func restoreTap(t *testing.T, st CheckpointState) *ckptTap {
	t.Helper()
	p := &ckptTap{stats: &IngestStats{}, figures: newCkptFigures(t)}
	p.gate = NewEpochGate(p.stats.Wrap(p.figures.Wrap(nil)), nil)
	p.restore(st)
	return p
}

// restore restores st into the taps as refLoadCheckpoint's callers did.
func (p *ckptTap) restore(st CheckpointState) {
	refRestoreGate(p.gate, st.Gate)
	if st.Figures != nil {
		p.figures.RestoreState(*st.Figures)
	}
	if st.Ingest != nil {
		refRestoreStats(p.stats, *st.Ingest)
	}
}

func (p *ckptTap) cut(archived uint64) CheckpointState {
	fs, is := p.figures.State(), p.stats.Snapshot()
	return CheckpointState{ArchivedBatches: archived, Gate: p.gate.State(), Figures: &fs, Ingest: &is}
}

// allocatedBy is the heap fn allocated, in bytes.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// mbc1AllocBound is what decoding an MBC1 file of n bytes may allocate.
// The densest thing a byte can stand for is a one-byte util_hist bin (8
// bytes decoded); the factor leaves room above that, the constant for
// the fixed parts and an error value.
func mbc1AllocBound(n int) uint64 { return 16*uint64(n) + 64<<10 }

// mbc1Seal replaces the last four bytes of an (edited) MBC1 file with
// the checksum of what precedes them, so damage gets past the CRC and
// reaches the decoder proper.
func mbc1Seal(file []byte) []byte {
	body := file[:len(file)-4]
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

// mbc1Sections lists where st's encoding ends each of its sections:
// header, gate, ingest, each series, body (the trailer is what is left).
func mbc1Sections(st CheckpointState) []int {
	const trailer = 4
	part := st
	part.Ingest, part.Figures = nil, nil
	ends := []int{len(CheckpointMagic) + 1, len(appendCheckpoint(nil, &part)) - 2 - trailer}
	part.Ingest = st.Ingest
	ends = append(ends, len(appendCheckpoint(nil, &part))-1-trailer)
	if st.Figures != nil {
		for n := range st.Figures.Series { // the count stays one byte up to 127 series
			part.Figures = &FiguresState{Samples: st.Figures.Samples, Series: st.Figures.Series[:n+1]}
			ends = append(ends, len(appendCheckpoint(nil, &part))-trailer)
		}
	}
	return ends
}

// mbc1Forged builds the hostile MBC1 files: counts far beyond the bytes
// that follow them, fields out of range, and entries no sorted cut lists,
// behind a valid checksum.
func mbc1Forged() map[string][]byte {
	// One series with an empty utilBins-bin histogram and nothing else:
	// its count is the byte after magic, version, archived_batches,
	// #gate, has_ingest, has_figures and samples; its #bins the byte
	// before the trailer and the utilBins bins, points and hot that
	// follow it, one byte each.
	st := CheckpointState{Figures: &FiguresState{Samples: 1, Series: []*SeriesState{{Rack: 1, UtilHist: make([]uint64, utilBins)}}}}
	file := appendCheckpoint(nil, &st)
	const seriesCount = len(CheckpointMagic) + 6
	binsCount := len(file) - 4 - (utilBins + 2) - 1
	splice := func(at int, v uint64) []byte {
		out := append([]byte(nil), file[:at]...)
		out = binary.AppendUvarint(out, v)
		return mbc1Seal(append(out, file[at+1:]...))
	}
	return map[string][]byte{
		"series count of 2^62":            splice(seriesCount, 1<<62),
		"util_hist longer than the file":  splice(binsCount, uint64(10*len(file))),
		"gate count of 2^40":              splice(len(CheckpointMagic)+2, 1<<40),
		"trailing byte":                   mbc1Seal(append(append([]byte(nil), file[:len(file)-4]...), 0, 0, 0, 0, 0)),
		"non-minimal varint":              mbc1Seal(append(append(append([]byte(nil), file[:5]...), 0x80, 0x00), file[6:]...)),
		"bool byte of 2":                  splice(len(CheckpointMagic)+3, 2),
		"rack beyond uint32":              splice(seriesCount+1, 1<<32),
		"series direction of -1":          splice(seriesCount+3, 1),   // zigzag
		"series kind of 256":              splice(seriesCount+4, 512), // zigzag
		"version 2":                       mbc1Seal(append(append(append([]byte(nil), file[:4]...), 2), file[5:]...)),
		"nothing after magic and version": []byte(CheckpointMagic + "\x01"),
		"gate rack listed twice":          appendCheckpoint(nil, &CheckpointState{Gate: []RackEpochState{{Rack: 5}, {Rack: 5, Epoch: 1}}}),
		"per-rack rack listed twice": appendCheckpoint(nil, &CheckpointState{Ingest: &Snapshot{
			PerRack: []RackCount{{Rack: 5, Samples: 1}, {Rack: 5, Samples: 2}}}}),
		"series out of canonical order": appendCheckpoint(nil, &CheckpointState{Figures: &FiguresState{Series: []*SeriesState{
			{Rack: 2, UtilHist: make([]uint64, utilBins)}, {Rack: 1, UtilHist: make([]uint64, utilBins)}}}}),
	}
}

// checkMBC1 decodes data, which may be anything behind the magic, as
// LoadCheckpoint does: the decoder must not panic, must allocate within
// mbc1AllocBound, and must either refuse — that error is returned — or
// return the state whose one encoding data is.
func checkMBC1(t *testing.T, data []byte) error {
	t.Helper()
	var st CheckpointState
	var err error
	if got, bound := allocatedBy(func() { st, err = decodeMBC1(data) }), mbc1AllocBound(len(data)); got > bound {
		t.Fatalf("decoding %d bytes of MBC1 allocated %d, bound %d", len(data), got, bound)
	}
	if err == nil && !bytes.Equal(appendCheckpoint(nil, &st), data) {
		t.Fatal("an MBC1 file decoded but does not re-encode to itself")
	}
	return err
}

// sorted reports whether every section of st lists its entries strictly
// ascending, as a cut does.
func sorted(st CheckpointState) bool {
	for i := 1; i < len(st.Gate); i++ {
		if st.Gate[i].Rack <= st.Gate[i-1].Rack {
			return false
		}
	}
	if st.Ingest != nil {
		for i := 1; i < len(st.Ingest.PerRack); i++ {
			if st.Ingest.PerRack[i].Rack <= st.Ingest.PerRack[i-1].Rack {
				return false
			}
		}
	}
	if st.Figures != nil {
		for i := 1; i < len(st.Figures.Series); i++ {
			if st.Figures.Series[i].id().compare(st.Figures.Series[i-1].id()) <= 0 {
				return false
			}
		}
	}
	return true
}

// checkLiveRestore is FuzzLoadCheckpoint's differential arm: the one
// decoder — the restore a Resume runs, which decodes the checkpoint
// straight into the taps, and LoadCheckpoint, which cuts what it
// restored — against refLoadCheckpoint and the restores it was paired
// with, each on a pipeline that took the same traffic first. The decoder
// accepts what the reference accepts with every section sorted, and
// nothing else:
//
//   - where both load, LoadCheckpoint returns the reference's state and
//     the two pipelines cut alike;
//   - where only the reference loads, its state has an entry out of
//     order, and the decoder's error says so;
//   - where the reference fails to decode, the decoder fails with the
//     same text; where it decodes and refuses the state, so does the
//     decoder.
//
// LoadCheckpoint fails exactly as the restore does, and a failed restore
// leaves its taps as they were.
func checkLiveRestore(t *testing.T, path string, before []*wire.Batch) {
	t.Helper()
	fed := func() *ckptTap {
		p := restoreTap(t, CheckpointState{})
		for _, b := range before {
			p.gate.Handle(b)
		}
		return p
	}
	ref, live := fed(), fed()
	untouched := live.cut(0)
	want, _, _, refErr := refLoadCheckpoint(path)
	if refErr == nil {
		ref.restore(want)
	}
	c, ok, liveErr := openCheckpoint(path)
	if liveErr == nil {
		if !ok {
			t.Fatal("an existing file opened as missing")
		}
		_, liveErr = c.restore(live.gate, live.stats, live.figures)
	}
	got, _, loadErr := LoadCheckpoint(path)
	if fmt.Sprint(loadErr) != fmt.Sprint(liveErr) {
		t.Fatalf("LoadCheckpoint fails with %v, the restore with %v", loadErr, liveErr)
	}
	same := func(a, b CheckpointState) bool {
		// DeepEqual tells nil from empty but not NaN from NaN.
		return reflect.DeepEqual(a, b) || bytes.Equal(appendCheckpoint(nil, &a), appendCheckpoint(nil, &b))
	}
	switch {
	case liveErr == nil && refErr != nil:
		t.Fatalf("the decoder loads what refLoadCheckpoint refuses with %v", refErr)
	case liveErr == nil:
		if !same(got, want) {
			t.Fatalf("LoadCheckpoint returns another state than refLoadCheckpoint:\n got %+v\nwant %+v", got, want)
		}
		if g, w := live.cut(0), ref.cut(0); !same(g, w) {
			t.Fatalf("the restore leaves another state than refLoadCheckpoint and its restores:\n got %+v\nwant %+v", g, w)
		}
		return
	case refErr == nil:
		if sorted(want) || !strings.Contains(liveErr.Error(), "listed twice") && !strings.Contains(liveErr.Error(), "out of order") {
			t.Fatalf("the decoder refuses with %v what refLoadCheckpoint loads", liveErr)
		}
	case strings.Contains(refErr.Error(), "decoding checkpoint"):
		if liveErr.Error() != refErr.Error() {
			t.Fatalf("the decoder fails with %v, refLoadCheckpoint with %v", liveErr, refErr)
		}
	case strings.Contains(liveErr.Error(), "decoding checkpoint"):
		t.Fatalf("the decoder fails to decode (%v) what refLoadCheckpoint decodes and refuses (%v)", liveErr, refErr)
	}
	if g := live.cut(0); !same(g, untouched) {
		t.Fatalf("a failed restore (%v) changed the taps:\n got %+v\nwant %+v", liveErr, g, untouched)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader —
// durable bytes are outside input. Whatever loads must restore into a
// pipeline that takes traffic without panicking, and what that pipeline
// then cuts must survive saveCheckpoint → LoadCheckpoint unchanged. An
// MBC1 input that loads must moreover be the one encoding of its state,
// and loading or rejecting it may allocate only in proportion to its
// size, whatever counts it claims. Whatever the input, the one decoder
// agrees with the reference decoder it replaced (checkLiveRestore).
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seed := range []string{parentCheckpoint, compactCheckpoint} {
		data, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"archived_batches":1,"figures":{"samples":1,"series":[{"rack":1,"port":1,"dir":1,"kind":0,"util_hist":[0]}]}}`))
	golden, err := os.ReadFile(binaryCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	goldenState, err := decodeMBC1(golden)
	if err != nil {
		f.Fatal(err)
	}
	for _, end := range mbc1Sections(goldenState) {
		f.Add(golden[:end])                                   // cut at the boundary, no trailer
		f.Add(mbc1Seal(append(golden[:end:end], 0, 0, 0, 0))) // and with a valid one
	}
	flipped := append([]byte(nil), golden...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	for _, forged := range mbc1Forged() {
		f.Add(forged)
	}
	for _, respelled := range mbc1NonMinimal() {
		f.Add(respelled)
	}
	for _, invalid := range invalidSeriesCheckpoints() {
		f.Add(invalid.data)
	}
	// The fixture with its first series listed again last: a duplicate
	// out of canonical order.
	again := goldenState
	again.Figures = &FiguresState{Samples: goldenState.Figures.Samples,
		Series: append(slices.Clone(goldenState.Figures.Series), goldenState.Figures.Series[0])}
	f.Add(appendCheckpoint(nil, &again))
	traffic := fixtureTraffic(fixtureCkptRounds + 1)
	next := traffic[fixtureCkptRounds*4:] // the round after the fixtures' checkpoint

	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.HasPrefix(data, []byte(CheckpointMagic)) {
			// A mutated file dies at the checksum; resealed, the same
			// mutation reaches the field decoder and, if that takes it,
			// the restore below.
			if err := checkMBC1(t, data); err != nil && len(data) >= len(CheckpointMagic)+1+4 {
				data = mbc1Seal(append([]byte(nil), data...))
				checkMBC1(t, data)
			}
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "in.mbc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkLiveRestore(t, path, traffic[:8])
		st, ok, err := LoadCheckpoint(path)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("load error does not name the file: %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("an existing file loaded as missing")
		}
		tap := restoreTap(t, st)
		for _, b := range next {
			tap.gate.Handle(b)
		}
		cut := tap.cut(st.ArchivedBatches)
		out := filepath.Join(dir, "out.mbc")
		if err := saveCheckpoint(out, cut); err != nil {
			t.Fatalf("saveCheckpoint: %v", err)
		}
		back, ok, err := LoadCheckpoint(out)
		if err != nil || !ok {
			t.Fatalf("re-loading a checkpoint this tree wrote: ok=%v err=%v", ok, err)
		}
		// DeepEqual tells nil from empty but not NaN from NaN; a NaN the
		// input smuggled into an accumulator is equal as bits.
		if !reflect.DeepEqual(back, cut) && !bytes.Equal(appendCheckpoint(nil, &back), appendCheckpoint(nil, &cut)) {
			t.Errorf("checkpoint does not round-trip:\nwrote %+v\n read %+v", cut, back)
		}
	})
}

// FuzzLoadFleetCheckpoint does the same one level up: a fleet's
// checkpoint is its shards' checkpoint files, so one shard's file of a
// two-shard fleet is fuzzed beside an intact one. Whatever LoadCheckpoint
// accepts must seed an aggregator, which then either merges both shards
// or names the series two of them claim — never panics.
func FuzzLoadFleetCheckpoint(f *testing.F) {
	intact, _, err := LoadCheckpoint(binaryCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	golden, err := os.ReadFile(binaryCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden) // every series also on the intact shard
	f.Add(golden[:len(golden)/2])
	f.Add([]byte(`{"archived_batches":1}`))
	for _, invalid := range invalidSeriesCheckpoints() {
		f.Add(invalid.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), CheckpointFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, ok, err := LoadCheckpoint(path)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("load error does not name the file: %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("an existing file loaded as missing")
		}
		agg, err := NewAggregator(AggregatorConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		if err := agg.Restore([]CheckpointState{intact, st}); err != nil {
			t.Fatalf("Restore refused a checkpoint LoadCheckpoint accepted: %v", err)
		}
		fs, err := agg.FleetState()
		if err != nil {
			// LoadCheckpoint refuses a file that lists a series twice, so
			// the one duplicate left to find is a series both shards hold.
			if !strings.Contains(err.Error(), "claimed by two shards") {
				t.Fatalf("fleet merge failed for another reason than a duplicate series: %v", err)
			}
			return
		}
		if fs.Reporting != 2 {
			t.Errorf("fleet state reports %d shards of 2", fs.Reporting)
		}
	})
}
