package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

// pinnedConfig is QuickConfig cut down until RunAll plus one recording
// finish in about a second.
func pinnedConfig() Config {
	cfg := QuickConfig()
	cfg.WindowDur = 20 * simclock.Millisecond
	cfg.Warmup = 5 * simclock.Millisecond
	return cfg
}

// pinnedArch is where pinned digests and counts were recorded.
const pinnedArch = "amd64"

// wantPinned reads a committed digest. The files under testdata/ were
// computed at the commit before the fluid data path got charge plans, so
// they pin simulated output across commits, not only across worker counts:
// a change that moves one bit of any counter, queue or drop moves them.
func wantPinned(t *testing.T, name string) string {
	t.Helper()
	if runtime.GOARCH != pinnedArch {
		t.Skipf("pinned digests were recorded on amd64; on %s Go may fuse a multiply and an add into one rounding, which legitimately moves the last bit", runtime.GOARCH)
	}
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(data))
}

// TestPinnedReport compares the text of every table and figure with the
// parent commit's.
func TestPinnedReport(t *testing.T) {
	want := wantPinned(t, "report_parent.sha256")
	exp, err := NewExperiment(pinnedConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rep.Format()))); got != want {
		t.Errorf("report sha256 = %s, the parent commit's is %s: the simulation no longer reproduces its output", got, want)
	}
}

// TestPinnedRecording compares a recorded trace directory — every port's
// bytes and size bins plus the buffer peak, so packets, bins and the peak
// register are on the wire — with the parent commit's, file by file.
// testdata/record_parent.sha256sums is the parent's hashDir of the same
// recording in each format it could then write, made when a recording was
// a window dir. The one recording there is now must equal its mbw3 rows
// in what it says: campaign.json byte for byte, and segment k+1 the
// batches of the parent's window_%04d.mbw(k). Segment bytes moved when
// MBW3 columns took every packed width, so the parent's segments are kept
// under testdata/record_parent/, where they must still hash to their
// rows, and each new segment must decode to exactly their batches. Only
// the manifest may differ.
func TestPinnedRecording(t *testing.T) {
	parent := make(map[string]string) // "<format>/<file name>" → sha256
	for _, line := range strings.Split(wantPinned(t, "record_parent.sha256sums"), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed sums line %q", line)
		}
		parent[name] = sum
	}
	const label = "mbw3"
	cfg := pinnedConfig()
	exp, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "trace")
	err = exp.RecordCampaign(context.Background(), workload.Hadoop, dir, 200*simclock.Microsecond, "pinned", FullCounters())
	if err != nil {
		t.Fatal(err)
	}
	files := hashDir(t, dir)
	kept := hashDir(t, filepath.Join("testdata", "record_parent"))
	windows := cfg.Racks * cfg.Windows
	if len(files) != windows+2 {
		t.Errorf("%s: recording holds %d files, want campaign.json, archive.json and %d segments", label, len(files), windows)
	}
	if got, want := files[trace.MetaFileName], parent[label+"/"+trace.MetaFileName]; got != want {
		t.Errorf("%s: campaign.json sha256 = %s, the parent commit's is %s", label, got, want)
	}
	for k := 0; k < windows; k++ {
		seg, win := fmt.Sprintf("seg_%06d.mbw", k+1), fmt.Sprintf("%s/window_%04d.mbw", label, k)
		if parent[win] == "" {
			t.Fatalf("%s is not in the parent's sums", win)
		}
		if kept[seg] != parent[win] {
			t.Fatalf("testdata/record_parent/%s sha256 = %s, the parent commit's %s is %s", seg, kept[seg], win, parent[win])
		}
		got, want := readSegment(t, filepath.Join(dir, seg)), readSegment(t, filepath.Join("testdata", "record_parent", seg))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to %d batches unlike the parent commit's %s (%d batches): the simulation no longer reproduces its output", seg, len(got), win, len(want))
		}
	}
}

// readSegment decodes every batch of one archive segment.
func readSegment(t *testing.T, path string) []wire.Batch {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []wire.Batch
	r := wire.NewReader(f)
	for {
		b, err := r.ReadBatch()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, wire.Batch{Rack: b.Rack, Epoch: b.Epoch, Samples: b.Samples})
	}
}
