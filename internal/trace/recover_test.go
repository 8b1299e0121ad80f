package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func writeCampaign(t *testing.T, dir string, windows ...[]int) *Writer {
	t.Helper()
	meta := validMeta()
	w, err := Create(dir, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range windows {
		if err := w.WriteWindow(i, 1, mkSamples(n[0])); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestWindowManifestSeals(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, []int{10}, []int{20})
	man, err := loadWindowManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Windows) != 2 {
		t.Fatalf("manifest holds %d windows, want 2", len(man.Windows))
	}
	for i, info := range man.Windows {
		if info.Idx != i || info.Samples != uint64(10*(i+1)) || info.Bytes <= 0 {
			t.Errorf("window %d manifest entry %+v", i, info)
		}
		fi, err := os.Stat(filepath.Join(dir, windowFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != info.Bytes {
			t.Errorf("window %d: manifest says %d B, file is %d B", i, info.Bytes, fi.Size())
		}
	}
	// A clean campaign recovers trivially: both windows trusted, no scans.
	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Sealed, []int{0, 1}) || len(rep.Scanned) != 0 || len(rep.RemovedTemps) != 0 {
		t.Errorf("clean recovery report %+v", rep)
	}
}

func TestRecoverTruncatesTornWindow(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, []int{100})
	want, err := func() ([]float64, error) {
		r, err := Open(dir)
		if err != nil {
			return nil, err
		}
		s, err := readAll(r, 0)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(s))
		for i := range s {
			vals[i] = float64(s[i].Value)
		}
		return vals, nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the sealed window with a torn tail, as if a crash had
	// appended half a frame. The size no longer matches the manifest, so
	// recovery rescans and truncates back to the decodable prefix.
	path := filepath.Join(dir, windowFileName(0))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Close()
	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scanned) != 1 || !rep.Scanned[0].Torn || rep.Scanned[0].TruncatedBytes != 7 {
		t.Fatalf("recovery report %+v, want one torn window with 7 truncated bytes", rep)
	}
	if rep.Scanned[0].Samples != 100 {
		t.Errorf("recovered %d samples, want 100", rep.Scanned[0].Samples)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(r, 0)
	if err != nil {
		t.Fatalf("window unreadable after recovery: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d samples, want %d", len(got), len(want))
	}
	// Second recovery is a no-op: the repaired state was recorded.
	rep2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Scanned) != 0 || len(rep2.Sealed) != 1 {
		t.Errorf("second recovery rescanned: %+v", rep2)
	}
}

func TestRecoverRemovesTemps(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, []int{5})
	tmp := filepath.Join(dir, windowFileName(1)+TempSuffix)
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedTemps) != 1 {
		t.Fatalf("removed %v, want one temp", rep.RemovedTemps)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("temp file survived recovery")
	}
}

func TestRecoverRefusesNonCampaign(t *testing.T) {
	if _, err := Recover(t.TempDir()); err == nil {
		t.Fatal("Recover accepted a directory with no campaign")
	}
}

func TestScanStreamEveryTruncation(t *testing.T) {
	// Build one valid window's bytes, then scan every prefix length:
	// the scan must never panic, never report more than the full stream,
	// and report exactly the full stream when uncut.
	dir := t.TempDir()
	writeCampaign(t, dir, []int{64})
	data, err := os.ReadFile(filepath.Join(dir, windowFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	full := ScanStream(bytes.NewReader(data))
	if full.Torn || full.Samples != 64 || full.GoodBytes != int64(len(data)) {
		t.Fatalf("full scan %+v", full)
	}
	for cut := 0; cut <= len(data); cut++ {
		res := ScanStream(bytes.NewReader(data[:cut]))
		if res.GoodBytes > int64(cut) || res.Samples > full.Samples {
			t.Fatalf("cut %d: scan claims %+v", cut, res)
		}
		if cut == len(data) && res.Torn {
			t.Fatalf("uncut stream reported torn: %+v", res)
		}
		if cut < len(data) && cut > int(res.GoodBytes) && !res.Torn {
			t.Fatalf("cut %d: torn tail not reported: %+v", cut, res)
		}
	}
}
