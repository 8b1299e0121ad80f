package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

func validMeta() Meta {
	return Meta{
		App:         "web",
		RackID:      3,
		NumServers:  32,
		NumUplinks:  4,
		ServerSpeed: 10e9,
		UplinkSpeed: 40e9,
		Interval:    25 * simclock.Microsecond,
		WindowDur:   simclock.Seconds(2),
		Windows:     3,
		Seed:        42,
		Counters:    []collector.CounterSpec{{Port: 5, Dir: asic.TX, Kind: asic.KindBytes}},
		Notes:       "fig3",
	}
}

func mkSamples(n int) []wire.Sample {
	out := make([]wire.Sample, n)
	for i := range out {
		out[i] = wire.Sample{
			Time:  simclock.Epoch.Add(simclock.Micros(int64(i) * 25)),
			Port:  5,
			Dir:   asic.TX,
			Kind:  asic.KindBytes,
			Value: uint64(i) * 777,
		}
	}
	return out
}

// readAll materializes one window through IterWindow, copying samples out
// of the reused batch.
func readAll(r *Reader, idx int) ([]wire.Sample, error) {
	var out []wire.Sample
	err := r.IterWindow(idx, func(b *wire.Batch) error {
		out = append(out, b.Samples...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	w, err := Create(dir, validMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]wire.Sample{mkSamples(100), mkSamples(20000), nil}
	for i, s := range want {
		if err := w.WriteWindow(i, 7, s); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := validMeta()
	wantMeta.Format = "mbw3" // stamped by Create
	if !reflect.DeepEqual(r.Meta(), wantMeta) {
		t.Errorf("meta mismatch:\n%+v\n%+v", r.Meta(), wantMeta)
	}
	for i, s := range want {
		got, err := readAll(r, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(s) {
			t.Fatalf("window %d: %d samples, want %d", i, len(got), len(s))
		}
		for j := range s {
			if got[j] != s[j] {
				t.Fatalf("window %d sample %d mismatch", i, j)
			}
		}
	}
}

func TestCreateRefusesOverwrite(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, validMeta(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, validMeta(), nil); err == nil {
		t.Error("Create overwrote an existing campaign")
	}
}

func TestMetaValidation(t *testing.T) {
	mutations := []func(*Meta){
		func(m *Meta) { m.App = "" },
		func(m *Meta) { m.NumServers = 0 },
		func(m *Meta) { m.NumUplinks = -1 },
		func(m *Meta) { m.Interval = 0 },
		func(m *Meta) { m.WindowDur = -5 },
		func(m *Meta) { m.Windows = 0 },
		func(m *Meta) { m.Counters = nil },
		func(m *Meta) { m.Format = "mbw9" },
	}
	for i, mut := range mutations {
		m := validMeta()
		mut(&m)
		if m.Validate() == nil {
			t.Errorf("mutation %d validated", i)
		}
		if _, err := Create(filepath.Join(t.TempDir(), "x"), m, nil); err == nil {
			t.Errorf("mutation %d created", i)
		}
	}
}

func TestWriteWindowGuards(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "c"), validMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteWindow(-1, 0, nil); err == nil {
		t.Error("negative window accepted")
	}
	if err := w.WriteWindow(3, 0, nil); err == nil {
		t.Error("out-of-range window accepted")
	}
	if err := w.WriteWindow(0, 0, mkSamples(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteWindow(0, 0, mkSamples(5)); err == nil {
		t.Error("double write accepted")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("Open of missing dir succeeded")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, MetaFileName), []byte("{not json"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("Open of corrupt meta succeeded")
	}
}

func TestHasWindowAndMissingWindow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	w, err := Create(dir, validMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteWindow(1, 0, mkSamples(3)); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.HasWindow(0) || !r.HasWindow(1) {
		t.Error("HasWindow wrong")
	}
	if _, err := readAll(r, 0); err == nil {
		t.Error("reading missing window succeeded")
	}
	if _, err := readAll(r, 99); err == nil {
		t.Error("reading out-of-range window succeeded")
	}
}

func TestIterWindow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	w, err := Create(dir, validMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 20000 samples span multiple batches (batchSize 8192).
	want := mkSamples(20000)
	if err := w.WriteWindow(0, 4, want); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []wire.Sample
	batches := 0
	err = r.IterWindow(0, func(b *wire.Batch) error {
		if b.Rack != 4 {
			t.Errorf("rack = %d", b.Rack)
		}
		batches++
		got = append(got, b.Samples...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 3 {
		t.Errorf("only %d batches; expected the window to span several", batches)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	// Early stop propagates the handler's error.
	sentinel := os.ErrClosed
	calls := 0
	err = r.IterWindow(0, func(*wire.Batch) error {
		calls++
		return sentinel
	})
	if err != sentinel || calls != 1 {
		t.Errorf("early stop: err=%v calls=%d", err, calls)
	}
	// Guards.
	if err := r.IterWindow(99, func(*wire.Batch) error { return nil }); err == nil {
		t.Error("out-of-range window accepted")
	}
	if err := r.IterWindow(0, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestCorruptWindowDetected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	w, err := Create(dir, validMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteWindow(0, 0, mkSamples(100)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(r, 0); err == nil {
		t.Error("corrupt window read without error")
	}
}

// TestFormats: whatever wire format the caller's Meta names, Create
// records MBW3 and says so — a campaign.json can never disagree with its
// segments — the samples read back, and the segments are substantially
// smaller than the same batches in the MBW2 row framing.
func TestFormats(t *testing.T) {
	want := [][]wire.Sample{mkSamples(100), mkSamples(20000), nil}
	var rowBytes int64 // Σ wire.EncodedSize over WriteWindow's batches
	for _, s := range want {
		for off := 0; off == 0 || off < len(s); off += BatchSize {
			rowBytes += int64(wire.EncodedSize(&wire.Batch{Rack: 7, Samples: s[off:min(off+BatchSize, len(s))]}))
		}
	}
	for _, format := range []string{"", "mbw1", "mbw2", "mbw3"} {
		dir := filepath.Join(t.TempDir(), "c")
		meta := validMeta()
		meta.Format = format
		w, err := Create(dir, meta, nil)
		if err != nil {
			t.Fatalf("%q: %v", format, err)
		}
		var total int64
		for i, s := range want {
			if err := w.WriteWindow(i, 7, s); err != nil {
				t.Fatalf("%q window %d: %v", format, i, err)
			}
			seg, err := os.ReadFile(filepath.Join(dir, segName(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(seg, []byte("MBW3")) {
				t.Errorf("%q window %d opens with %q, want MBW3", format, i, seg[:4])
			}
			total += int64(len(seg))
		}
		if total*2 >= rowBytes {
			t.Errorf("%q: segments not compact: %d B vs %d B as mbw2", format, total, rowBytes)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("%q: %v", format, err)
		}
		if got := r.Meta().Format; got != "mbw3" {
			t.Errorf("%q: campaign.json records format %q, want mbw3", format, got)
		}
		for i, s := range want {
			got, err := readAll(r, i)
			if err != nil {
				t.Fatalf("%q window %d: %v", format, i, err)
			}
			if len(got) != len(s) {
				t.Fatalf("%q window %d: %d samples, want %d", format, i, len(got), len(s))
			}
			for j := range s {
				if got[j] != s[j] {
					t.Fatalf("%q window %d sample %d mismatch", format, i, j)
				}
			}
		}
	}
}

func TestCreateWithOpener(t *testing.T) {
	// A failing opener surfaces as a WriteWindow error — the disk-fault
	// injection point — while window files already written stay intact.
	dir := filepath.Join(t.TempDir(), "c")
	var fail bool
	opened := 0
	open := func(path string) (io.WriteCloser, error) {
		if fail {
			return nil, errors.New("injected disk error")
		}
		opened++
		return os.Create(path)
	}
	w, err := Create(dir, validMeta(), open)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteWindow(0, 1, mkSamples(10)); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := w.WriteWindow(1, 1, mkSamples(10)); err == nil {
		t.Fatal("injected disk error not surfaced")
	}
	fail = false
	if opened != 1 {
		t.Errorf("opener called %d times for the successful window, want 1", opened)
	}
	// The failed window was not marked done and can be retried.
	if err := w.WriteWindow(1, 1, mkSamples(10)); err != nil {
		t.Fatalf("retry after injected failure: %v", err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasWindow(0) || !r.HasWindow(1) {
		t.Error("windows missing after retry")
	}
	// Nil opener falls back to os.Create.
	w2, err := Create(filepath.Join(t.TempDir(), "c2"), validMeta(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteWindow(0, 1, mkSamples(5)); err != nil {
		t.Fatal(err)
	}
}
