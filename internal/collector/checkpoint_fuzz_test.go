package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mburst/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/checkpoint_compact.json")

// Two checkpoints of one state are committed under testdata/:
//
//   - checkpoint_parent.json was written by the last commit that
//     indented its checkpoints (b3e8392), by its durable pipeline fed the
//     first fixtureCkptRounds rounds of fixtureTraffic and then
//     Checkpoint()ed. It cannot be regenerated from this tree, which is
//     the point: checkpoints already on disk must stay resumable.
//   - checkpoint_compact.json is the same state as SaveCheckpoint
//     writes it now (go test -run TestParentCheckpoint -update).
const (
	parentCheckpoint  = "testdata/checkpoint_parent.json"
	compactCheckpoint = "testdata/checkpoint_compact.json"
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

// TestParentCheckpointStaysResumable: the indented checkpoint a parent
// binary left behind loads, re-saves compactly to the same state (and
// to exactly the committed bytes: same schema, same field order), and a
// collector resumed from it ends up where one that never died does.
func TestParentCheckpointStaysResumable(t *testing.T) {
	st, ok, err := LoadCheckpoint(parentCheckpoint)
	if err != nil || !ok {
		t.Fatalf("loading %s: ok=%v err=%v", parentCheckpoint, ok, err)
	}
	resaved := filepath.Join(t.TempDir(), "ckpt.json")
	if err := SaveCheckpoint(resaved, st); err != nil {
		t.Fatal(err)
	}
	again, _, err := LoadCheckpoint(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, st) {
		t.Error("compact re-save of the parent's checkpoint loads to a different state")
	}
	got, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(compactCheckpoint, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(compactCheckpoint)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SaveCheckpoint no longer writes the bytes of %s", compactCheckpoint)
	}
	if n := bytes.Count(got, []byte("\n")); n != 1 || got[len(got)-1] != '\n' {
		t.Errorf("checkpoint is not one line of JSON: %d newlines", n)
	}
	indented, err := os.ReadFile(parentCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(got) > len(indented) {
		t.Errorf("compact form is %d bytes of the indented %d, want under half", len(got), len(indented))
	}

	// The parent was killed killRounds in: its archive holds that much,
	// its last checkpoint is the fixture.
	const killRounds, rounds, perRound = 17, 30, 4
	traffic := fixtureTraffic(rounds)
	oracle, oFigures, oStats := newDurable(t, &memArchive{}, filepath.Join(t.TempDir(), "ckpt.json"), 1000)
	for _, b := range traffic {
		oracle.Handle(b)
	}
	arch := &memArchive{}
	for _, b := range traffic[:killRounds*perRound] {
		if err := arch.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, indented, 0o644); err != nil {
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
		t.Fatalf("resume report %+v, want %+v", rep, wantRep)
	}
	for _, b := range traffic[killRounds*perRound:] {
		d.Handle(b)
	}
	if !reflect.DeepEqual(figures.State(), oFigures.State()) {
		t.Error("figures state diverges from the uninterrupted run")
	}
	if !reflect.DeepEqual(stats.Snapshot(), oStats.Snapshot()) {
		t.Errorf("ingest stats diverge: %+v vs %+v", stats.Snapshot(), oStats.Snapshot())
	}
	if !reflect.DeepEqual(d.gate.State(), oracle.gate.State()) {
		t.Error("gate state diverges")
	}
}

// TestLoadCheckpointRejectsSeriesWithoutHistogram: a checkpoint that
// lost a series' util_hist fails the load — and so Resume — with an
// error naming the series, per-shard and fleet form alike.
func TestLoadCheckpointRejectsSeriesWithoutHistogram(t *testing.T) {
	data, err := os.ReadFile(compactCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	var st CheckpointState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	st.Figures.Series[2].UtilHist = nil
	for _, form := range []string{"null", "[]", "absent"} {
		broken, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		switch form {
		case "[]":
			broken = bytes.Replace(broken, []byte(`"util_hist":null`), []byte(`"util_hist":[]`), 1)
		case "absent":
			broken = bytes.Replace(broken, []byte(`"util_hist":null,`), nil, 1)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt.json")
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
		fleet := filepath.Join(dir, "fleet.json")
		wrapped := append(append([]byte(`{"placement":{},"shards":[{"shard":0,"state":`), broken...), []byte("}]}")...)
		if err := os.WriteFile(fleet, wrapped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := LoadFleetCheckpoint(fleet); err == nil || ok || !strings.Contains(err.Error(), series) {
			t.Errorf("util_hist %s: LoadFleetCheckpoint ok=%v err=%v, want an error naming %q", form, ok, err, series)
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader —
// durable bytes are outside input. Whatever loads must restore into a
// pipeline that takes traffic without panicking, and what that pipeline
// then cuts must survive SaveCheckpoint → LoadCheckpoint unchanged.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seed := range []string{parentCheckpoint, compactCheckpoint} {
		data, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"archived_batches":1,"figures":{"samples":1,"series":[{"rack":1,"port":1,"dir":1,"kind":0,"util_hist":[0]}]}}`))
	traffic := fixtureTraffic(fixtureCkptRounds + 1)
	next := traffic[fixtureCkptRounds*4:] // the round after the fixtures' checkpoint

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, ok, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		if !ok {
			t.Fatal("an existing file loaded as missing")
		}
		figures := newCkptFigures(t)
		stats := &IngestStats{}
		gate := NewEpochGate(stats.Wrap(figures.Wrap(nil)), nil)
		gate.RestoreState(st.Gate)
		if st.Figures != nil {
			figures.RestoreState(*st.Figures)
		}
		if st.Ingest != nil {
			stats.Restore(*st.Ingest)
		}
		for _, b := range next {
			gate.Handle(b)
		}
		fs, is := figures.State(), stats.Snapshot()
		cut := CheckpointState{ArchivedBatches: st.ArchivedBatches, Gate: gate.State(), Figures: &fs, Ingest: &is}
		out := filepath.Join(dir, "out.json")
		if err := SaveCheckpoint(out, cut); err != nil {
			var unsupported *json.UnsupportedValueError
			if errors.As(err, &unsupported) {
				return // an accumulator overflowed to ±Inf: reported, not written
			}
			t.Fatalf("SaveCheckpoint: %v", err)
		}
		back, ok, err := LoadCheckpoint(out)
		if err != nil || !ok {
			t.Fatalf("re-loading a checkpoint this tree wrote: ok=%v err=%v", ok, err)
		}
		if !reflect.DeepEqual(back, cut) {
			bj, _ := json.Marshal(back)
			cj, _ := json.Marshal(cut)
			t.Errorf("checkpoint does not round-trip:\nwrote %s\n read %s", cj, bj)
		}
	})
}
