package ptrace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Dump is the JSON shape served at /spans and written by mbsim -trace:
// the ring's spans in canonical order. Because the order is canonical and
// span times are simulated, dumps of equivalent runs are byte-identical.
type Dump struct {
	Spans []Span `json:"spans"`
}

// Dump snapshots the ring into the serializable form.
func (t *Tracer) Dump() Dump { return Dump{Spans: t.Snapshot()} }

// WriteDump writes the canonical JSON dump to w.
func (t *Tracer) WriteDump(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Dump())
}

// ReadDump parses a span dump (the /spans response or an mbsim -trace
// file).
func ReadDump(r io.Reader) (Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return Dump{}, fmt.Errorf("ptrace: decoding dump: %w", err)
	}
	return d, nil
}

// MergeDumps combines span dumps recorded by several tracers — one per
// collector shard in a fleet campaign — into one canonical dump, as if
// a single tracer had recorded every span. Span IDs derive from batch
// content, so client and server halves recorded on different shards
// still join into whole traces after the merge.
func MergeDumps(dumps ...Dump) Dump {
	var out Dump
	for _, d := range dumps {
		out.Spans = append(out.Spans, d.Spans...)
	}
	sortSpans(out.Spans)
	return out
}

// SpansHandler serves the JSON dump — mounted at /spans on the daemons'
// debug mux.
func (t *Tracer) SpansHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := t.WriteDump(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// TracezHandler serves the text report — a recorded/evicted line, then
// WriteReport, as cmd/mbtrace prints it — mounted at /tracez on the
// daemons' debug mux. ?n=N bounds the number of traces shown (default
// 20, slowest first).
func (t *Tracer) TracezHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		n := 20
		if q := r.URL.Query().Get("n"); q != "" {
			var err error
			if n, err = strconv.Atoi(q); err != nil || n <= 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d spans recorded, %d evicted\n", t.Recorded(), t.Evicted())
		WriteReport(w, t.Snapshot(), n)
	})
}
