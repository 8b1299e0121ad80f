package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the harness itself, around its calls into each
// layer's public functions (spans inside the program are a later issue).
// Each recording goroutine owns one spanBuf, so recording takes no lock;
// a span's parent is the span open on the same goroutine when it began,
// and spans of one batch (or campaign cell) share an id across
// goroutines. Everything stays in memory until the run ends.

type spanKind uint8

const (
	spRound        spanKind = iota // harness: one goroutine's share of a round
	spGenFill                      // harness: generator fills one batch
	spWait                         // harness: generator waits for a due time or for the pipeline to drain
	spClientBatch                  // client: Emit × batch, including the flush it triggers
	spConnWrite                    // transport: conn.Write under a client flush
	spConnRead                     // transport: first Read start → last Read end of one batch (mostly waiting)
	spDecodeGate                   // wire: last Read end → handler entry (CRC + decode + gate admit)
	spStats                        // ingeststats: IngestStats.Wrap handler
	spFigures                      // figures: LiveFigures.Wrap handler
	spRunAll                       // runner: Experiment.RunAll
	spWireEncode                   // wire: Writer.WriteBatch into a buffer
	spWireDecode                   // wire: Reader.ReadBatch from a buffer
	spShardHandle                  // figures: Shard.Handle; its self time is gate + stats + figures (archive and checkpoint are children)
	spArchiveWrite                 // archive: ArchiveSink.WriteBatch
	spArchiveFsync                 // archive: segment file Sync
	spCheckpoint                   // checkpoint: checkpoint's archive Sync return → Handle/Checkpoint return
	spPublish                      // shard: Shard.Publish
	spOffer                        // aggregator: Offer / Deliver
	spFleetCut                     // aggregator: Flush + FleetState
	spFleetRender                  // aggregator: FleetFigures
	spResume                       // resume: kill → serving
	spArchiveScan                  // resume: ResumeArchive (recover + seal + reopen)
	spReplay                       // resume: Shard.Resume (checkpoint load + archive iteration)
	spReplayApply                  // resume: the replay callback of one batch
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct {
	layer, name string
	wait        bool // blocked, not busy: excluded from busy-time shares
}{
	spRound:        {"harness", "round", false},
	spGenFill:      {"harness", "gen.fill", false},
	spWait:         {"harness", "gen.wait", true},
	spClientBatch:  {"client", "client.emit_flush", false},
	spConnWrite:    {"transport", "conn.write", false},
	spConnRead:     {"transport", "conn.read", true},
	spDecodeGate:   {"wire", "server.decode_gate", false},
	spStats:        {"ingeststats", "stats.handle", false},
	spFigures:      {"figures", "figures.handle", false},
	spRunAll:       {"runner", "core.RunAll", false},
	spWireEncode:   {"wire", "wire.write_batch", false},
	spWireDecode:   {"wire", "wire.read_batch", false},
	spShardHandle:  {"figures", "shard.handle", false},
	spArchiveWrite: {"archive", "archive.write_batch", false},
	spArchiveFsync: {"archive", "archive.fsync", false},
	spCheckpoint:   {"checkpoint", "checkpoint.save", false},
	spPublish:      {"shard", "shard.publish", false},
	spOffer:        {"aggregator", "agg.offer", false},
	spFleetCut:     {"aggregator", "agg.fleet_state", false},
	spFleetRender:  {"aggregator", "agg.fleet_figures", false},
	spResume:       {"resume", "resume.total", false},
	spArchiveScan:  {"archive", "archive.resume_scan", false},
	spReplay:       {"resume", "shard.resume", false},
	spReplayApply:  {"resume", "resume.apply", false},
}

type spanRec struct {
	Kind   spanKind
	Parent int32 // index in the same buffer, -1 for a root
	ID     uint64
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// spanBuf is one goroutine's span log. A nil *spanBuf records nothing, so
// untraced runs go through the same code with only a nil check.
type spanBuf struct {
	epoch time.Time
	recs  []spanRec
	open  []int32
}

func (b *spanBuf) now() int64 { return int64(wallNow().Sub(b.epoch)) }

func (b *spanBuf) begin(k spanKind, id uint64) {
	if b == nil {
		return
	}
	b.beginAt(k, id, b.now())
}

func (b *spanBuf) beginAt(k spanKind, id uint64, start int64) {
	parent := int32(-1)
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
	}
	b.open = append(b.open, int32(len(b.recs)))
	b.recs = append(b.recs, spanRec{Kind: k, Parent: parent, ID: id, Start: start})
}

func (b *spanBuf) end() {
	if b == nil {
		return
	}
	n := len(b.open)
	b.recs[b.open[n-1]].End = b.now()
	b.open = b.open[:n-1]
}

// add records a closed span under the currently open one.
func (b *spanBuf) add(k spanKind, id uint64, start, end int64) {
	if b == nil {
		return
	}
	b.beginAt(k, id, start)
	n := len(b.open)
	b.recs[b.open[n-1]].End = end
	b.open = b.open[:n-1]
}

// tracer hands out per-goroutine buffers. A nil *tracer hands out nil
// buffers.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: wallNow()} }

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// kindTotals aggregates one span kind.
type kindTotals struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Wait  bool    `json:"wait,omitempty"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// ledger is the traced run's attribution: per kind and per layer, how
// much time was spent in the span itself (duration minus children).
type ledger struct {
	kinds     [numSpanKinds]kindTotals
	layerSelf map[string]float64 // busy kinds only
	waiting   float64            // span time rebooked as waiting inside a stage (lock or scheduler)
	rootWall  float64            // Σ root span durations (the traced wall, summed over goroutines)
}

func (t *tracer) ledger() *ledger {
	l := &ledger{layerSelf: map[string]float64{}}
	for k := range l.kinds {
		l.kinds[k].Layer, l.kinds[k].Name, l.kinds[k].Wait = spanInfo[k].layer, spanInfo[k].name, spanInfo[k].wait
	}
	if t == nil {
		return l
	}
	for _, b := range t.bufs {
		child := make([]int64, len(b.recs))
		for i := range b.recs {
			r := &b.recs[i]
			if r.Parent >= 0 {
				child[r.Parent] += r.End - r.Start
			} else {
				l.rootWall += float64(r.End-r.Start) / 1e9
			}
		}
		for i := range b.recs {
			r := &b.recs[i]
			kt := &l.kinds[r.Kind]
			kt.Count++
			kt.Total += float64(r.End-r.Start) / 1e9
			kt.Self += float64(r.End-r.Start-child[i]) / 1e9
		}
	}
	for k := range l.kinds {
		if !l.kinds[k].Wait {
			l.layerSelf[l.kinds[k].Layer] += l.kinds[k].Self
		}
	}
	return l
}

// move rebooks seconds of busy self time from one layer to another: a
// single-layer drive measured a cost that no seam separates inside a span.
func (l *ledger) move(from, to string, seconds float64) {
	seconds = math.Min(seconds, l.layerSelf[from])
	l.layerSelf[from] -= seconds
	l.layerSelf[to] += seconds
}

// moveToWait takes seconds out of a layer's self time: a stage's span
// covered that much more than the stage costs alone, i.e. it was waiting
// for its lock or for a P.
func (l *ledger) moveToWait(layer string, seconds float64) {
	seconds = math.Max(0, math.Min(seconds, l.layerSelf[layer]))
	l.layerSelf[layer] -= seconds
	l.waiting += seconds
}

func (l *ledger) count(k spanKind) float64 { return float64(l.kinds[k].Count) }
func (l *ledger) self(k spanKind) float64  { return l.kinds[k].Self }

// residualFrac is 1 − Σ(named layers' busy self time) ÷ Σ(busy self time
// of everything, harness included): the share of traced busy time the
// harness could not hand to a layer of the program.
func (l *ledger) residualFrac() float64 {
	var all, named float64
	for layer, s := range l.layerSelf {
		all += s
		if layer != "harness" {
			named += s
		}
	}
	if all == 0 {
		return 0
	}
	return 1 - named/all
}

// durations returns every span duration of one kind, in seconds.
func (t *tracer) durations(k spanKind) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, b := range t.bufs {
		for i := range b.recs {
			if b.recs[i].Kind == k {
				out = append(out, float64(b.recs[i].End-b.recs[i].Start)/1e9)
			}
		}
	}
	return out
}

// maxDumpSpans bounds the raw spans written to the dump (each goroutine
// contributes a prefix of its log); totals always cover every span.
const maxDumpSpans = 100000

type dumpSpan struct {
	Goroutine int    `json:"g"`
	Layer     string `json:"layer"`
	Name      string `json:"name"`
	ID        uint64 `json:"id"`
	Parent    int32  `json:"parent"`
	Index     int    `json:"i"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
}

// dump writes the ledger and (a prefix of) the raw spans as JSON.
func (t *tracer) dump(path, workload string, l *ledger) error {
	type layerRow struct {
		Layer string  `json:"layer"`
		Self  float64 `json:"busy_self_s"`
	}
	out := struct {
		Workload  string       `json:"workload"`
		RootWallS float64      `json:"root_wall_s"`
		WaitingS  float64      `json:"waiting_in_stage_s"`
		Layers    []layerRow   `json:"layers"`
		Kinds     []kindTotals `json:"kinds"`
		Spans     int          `json:"spans_recorded"`
		Dumped    []dumpSpan   `json:"spans"`
	}{Workload: workload, RootWallS: l.rootWall, WaitingS: l.waiting}
	for layer, s := range l.layerSelf {
		out.Layers = append(out.Layers, layerRow{layer, s})
	}
	sort.Slice(out.Layers, func(i, j int) bool { return out.Layers[i].Self > out.Layers[j].Self })
	for _, k := range l.kinds {
		if k.Count > 0 {
			out.Kinds = append(out.Kinds, k)
		}
	}
	quota := maxDumpSpans / max(len(t.bufs), 1)
	for g, b := range t.bufs {
		out.Spans += len(b.recs)
		for i, r := range b.recs {
			if i >= quota {
				break
			}
			out.Dumped = append(out.Dumped, dumpSpan{g, spanInfo[r.Kind].layer, spanInfo[r.Kind].name,
				r.ID, r.Parent, i, r.Start, r.End})
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
