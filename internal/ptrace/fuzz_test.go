package ptrace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadDump feeds arbitrary bytes to ReadDump, the decoder behind
// mbtrace -in and -url, and renders whatever decodes: WriteReport and
// MergeDumps must never panic, and the report's first line must count
// the dump's spans and distinct traces.
func FuzzReadDump(f *testing.F) {
	tr := New(Config{Capacity: 16})
	chainOneBatch(tr, 3, at(100), 16, 200)
	var recorded bytes.Buffer
	if err := tr.WriteDump(&recorded); err != nil {
		f.Fatal(err)
	}
	f.Add(recorded.Bytes())
	// laneWidth·offset overflowed int64 on this one (a negative lane cell).
	f.Add([]byte(`{"spans":[{"trace":1,"stage":"poll.read","start_ns":0,"end_ns":0},` +
		`{"trace":1,"stage":"server.ingest","start_ns":216172782113783808,"end_ns":288230376151711743}]}`))
	f.Add([]byte(`{"spans":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		traces := map[TraceID]bool{}
		for _, sp := range d.Spans {
			traces[sp.Trace] = true
		}
		var out strings.Builder
		WriteReport(&out, d.Spans, 20)
		want := fmt.Sprintf("%d spans, %d traces\n", len(d.Spans), len(traces))
		if !strings.HasPrefix(out.String(), want) {
			t.Fatalf("report opens %q, want %q", strings.SplitN(out.String(), "\n", 2)[0], want)
		}
		if m := MergeDumps(d, d); len(m.Spans) != 2*len(d.Spans) {
			t.Fatalf("MergeDumps(d, d) kept %d of %d spans", len(m.Spans), 2*len(d.Spans))
		}
	})
}
