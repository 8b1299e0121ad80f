package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mburst/internal/wire"
)

// ManifestFileName is the campaign window manifest: the durable record of
// which window files were atomically finalized, and at what size. A
// window listed here at its recorded size needs no scan after a crash;
// anything else is scanned and truncated to its decodable prefix.
const ManifestFileName = "manifest.json"

// WindowInfo records one sealed window in the campaign manifest.
type WindowInfo struct {
	Idx     int    `json:"idx"`
	Batches uint64 `json:"batches"`
	Samples uint64 `json:"samples"`
	Bytes   int64  `json:"bytes"`
}

// windowManifest is the on-disk shape of ManifestFileName.
type windowManifest struct {
	Windows []WindowInfo `json:"windows"`
}

func loadWindowManifest(dir string) (windowManifest, error) {
	var man windowManifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestFileName))
	if os.IsNotExist(err) {
		return man, nil // pre-manifest campaign: everything gets scanned
	}
	if err != nil {
		return man, fmt.Errorf("trace: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("trace: decoding manifest: %w", err)
	}
	return man, nil
}

func saveWindowManifest(dir string, man windowManifest) error {
	sort.Slice(man.Windows, func(i, j int) bool { return man.Windows[i].Idx < man.Windows[j].Idx })
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: encoding manifest: %w", err)
	}
	return atomicWriteFile(filepath.Join(dir, ManifestFileName), append(data, '\n'))
}

// countingReader tracks how many bytes the wrapped reader consumed.
// wire.Reader reads each frame directly with io.ReadFull (no read-ahead
// buffering), so after a successful ReadBatch the count is exactly the
// file offset one past that frame — the truncation point for recovery.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ScanResult reports the decodable prefix of a wire batch stream.
type ScanResult struct {
	// GoodBytes is the length of the longest prefix that decodes as
	// complete batches. Bytes past it are a torn or corrupt tail.
	GoodBytes int64
	// Batches and Samples count what the prefix holds.
	Batches uint64
	Samples uint64
	// Torn reports whether anything followed the good prefix; Err is the
	// decode error that ended a torn scan (nil on a clean EOF).
	Torn bool
	Err  error
}

// ScanStream reads wire batches from r until end-of-stream or damage and
// reports the decodable prefix. It never fails: damage is data, reported
// in the result, and the decoder is panic-free on arbitrary bytes (see
// FuzzTraceRecover).
func ScanStream(r io.Reader) ScanResult {
	cr := &countingReader{r: r}
	br := wire.NewReader(cr)
	br.SetReuse(true)
	var res ScanResult
	for {
		b, err := br.ReadBatch()
		if err == io.EOF {
			// Clean end only if it fell exactly on a frame boundary.
			if cr.n != res.GoodBytes {
				res.Torn = true
				res.Err = io.ErrUnexpectedEOF
			}
			return res
		}
		if err != nil {
			res.Torn = true
			res.Err = err
			return res
		}
		res.GoodBytes = cr.n
		res.Batches++
		res.Samples += uint64(len(b.Samples))
	}
}

// scanFile scans path and, when asked, truncates it to the good prefix
// and fsyncs the result so recovery decisions are durable.
func scanFile(path string, truncate bool) (ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScanResult{}, fmt.Errorf("trace: %w", err)
	}
	res := ScanStream(f)
	f.Close()
	if !truncate || !res.Torn {
		return res, nil
	}
	if err := os.Truncate(path, res.GoodBytes); err != nil {
		return res, fmt.Errorf("trace: truncating %s: %w", path, err)
	}
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err == nil {
		w.Sync()
		w.Close()
	}
	return res, nil
}

// WindowRecovery describes what a campaign recovery scan found in one
// window file that was not covered by the manifest.
type WindowRecovery struct {
	Idx     int    `json:"idx"`
	Batches uint64 `json:"batches"`
	Samples uint64 `json:"samples"`
	// TruncatedBytes is how much torn tail was cut off (0 for a file
	// that decoded cleanly end to end).
	TruncatedBytes int64 `json:"truncated_bytes"`
	Torn           bool  `json:"torn"`
}

// RecoverReport says exactly what survived a campaign recovery.
type RecoverReport struct {
	// Sealed lists windows verified against the manifest (no scan
	// needed: atomically finalized before the crash).
	Sealed []int `json:"sealed"`
	// Scanned lists windows that had to be scanned — unlisted in the
	// manifest or listed at a different size — with what survived.
	Scanned []WindowRecovery `json:"scanned,omitempty"`
	// RemovedTemps lists in-flight temp files that were deleted.
	RemovedTemps []string `json:"removed_temps,omitempty"`
}

// Recover makes a campaign directory consistent after a crash: temp files
// from unfinished atomic writes are removed, manifest-sealed windows are
// trusted as-is, and any other window file is scanned and truncated to
// its decodable prefix. The repaired state is recorded back into the
// manifest, so a second Recover is a no-op. It reports exactly what
// survived; every window it leaves behind decodes cleanly.
func Recover(dir string) (*RecoverReport, error) {
	if _, err := os.Stat(filepath.Join(dir, MetaFileName)); err != nil {
		return nil, fmt.Errorf("trace: %s holds no campaign: %w", dir, err)
	}
	man, err := loadWindowManifest(dir)
	if err != nil {
		return nil, err
	}
	sealed := make(map[int]WindowInfo, len(man.Windows))
	for _, w := range man.Windows {
		sealed[w.Idx] = w
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	rep := &RecoverReport{}
	var out windowManifest
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, TempSuffix):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			rep.RemovedTemps = append(rep.RemovedTemps, name)
		case strings.HasPrefix(name, "window_") && strings.HasSuffix(name, ".mbw"):
			var idx int
			if _, err := fmt.Sscanf(name, "window_%04d.mbw", &idx); err != nil {
				continue
			}
			path := filepath.Join(dir, name)
			fi, err := e.Info()
			if err != nil {
				return nil, fmt.Errorf("trace: %w", err)
			}
			if info, ok := sealed[idx]; ok && info.Bytes == fi.Size() {
				rep.Sealed = append(rep.Sealed, idx)
				out.Windows = append(out.Windows, info)
				continue
			}
			res, err := scanFile(path, true)
			if err != nil {
				return nil, err
			}
			rep.Scanned = append(rep.Scanned, WindowRecovery{
				Idx:            idx,
				Batches:        res.Batches,
				Samples:        res.Samples,
				TruncatedBytes: fi.Size() - res.GoodBytes,
				Torn:           res.Torn,
			})
			out.Windows = append(out.Windows, WindowInfo{
				Idx: idx, Batches: res.Batches, Samples: res.Samples, Bytes: res.GoodBytes,
			})
		}
	}
	sort.Ints(rep.Sealed)
	sort.Slice(rep.Scanned, func(i, j int) bool { return rep.Scanned[i].Idx < rep.Scanned[j].Idx })
	if err := saveWindowManifest(dir, out); err != nil {
		return nil, err
	}
	return rep, syncDir(dir)
}
