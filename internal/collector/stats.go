package collector

import (
	"cmp"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// IngestStats tracks what a collector service has received and serves the
// counters as JSON over HTTP — the operational surface a production
// deployment of the collection framework needs (fleet dashboards watch
// per-rack ingest to spot dead samplers).
//
// Wrap an existing BatchHandler with Wrap, and mount the stats on a mux:
//
//	stats := &collector.IngestStats{}
//	srv := collector.ServeConfigured(ln, stats.Wrap(sink.Handle), collector.ServerConfig{})
//	http.Handle("/stats", stats)
type IngestStats struct {
	mu         sync.Mutex
	batches    uint64
	samples    uint64
	perRack    map[uint32]uint64
	lastSample simclock.Time

	// Registry mirror (Attach): counters aggregate alongside the mutex
	// state so /metrics and the JSON snapshot always agree.
	reg      *obs.Registry
	batchesC *obs.Counter
	samplesC *obs.Counter
	rackC    map[uint32]*obs.Counter
}

// Attach mirrors the ingest accounting onto reg: batches, samples,
// per-rack sample totals (mburst_ingest_rack_samples_total{rack="N"}) and
// the newest sample timestamp as a scrape-time gauge. Counters already
// accumulated are carried over, so Attach may happen mid-stream. Nil reg
// is a no-op.
func (s *IngestStats) Attach(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.batchesC = reg.Counter("mburst_ingest_batches_total",
		"Sample batches decoded and handled.")
	s.samplesC = reg.Counter("mburst_ingest_samples_total",
		"Counter samples ingested.")
	s.batchesC.Add(s.batches - s.batchesC.Value())
	s.samplesC.Add(s.samples - s.samplesC.Value())
	s.rackC = make(map[uint32]*obs.Counter, len(s.perRack))
	for rack, n := range s.perRack {
		c := s.rackCounterLocked(rack)
		c.Add(n - c.Value())
	}
	reg.GaugeFunc("mburst_ingest_last_sample_ns",
		"Newest ingested sample timestamp (simulated nanoseconds); alerts fire when it stalls.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.lastSample.Nanoseconds())
		})
}

// rackCounterLocked returns the per-rack sample counter, creating and
// caching it on first use. Caller holds s.mu.
func (s *IngestStats) rackCounterLocked(rack uint32) *obs.Counter {
	if c, ok := s.rackC[rack]; ok {
		return c
	}
	c := s.reg.Counter("mburst_ingest_rack_samples_total",
		"Counter samples ingested, by source rack.",
		obs.L("rack", strconv.FormatUint(uint64(rack), 10)))
	s.rackC[rack] = c
	return c
}

// Wrap returns a BatchHandler that records b into the stats and then
// forwards to next (which may be nil for stats-only collection).
func (s *IngestStats) Wrap(next BatchHandler) BatchHandler {
	return func(b *wire.Batch) {
		n := uint64(len(b.Samples))
		s.mu.Lock()
		s.batches++
		s.samples += n
		if s.perRack == nil {
			s.perRack = make(map[uint32]uint64)
		}
		s.perRack[b.Rack] += n
		if n > 0 && b.Samples[n-1].Time > s.lastSample {
			s.lastSample = b.Samples[n-1].Time
		}
		s.batchesC.Inc()
		s.samplesC.Add(n)
		if s.reg != nil {
			s.rackCounterLocked(b.Rack).Add(n)
		}
		s.mu.Unlock()
		if next != nil {
			next(b)
		}
	}
}

// Snapshot is the JSON shape served by the handler.
type Snapshot struct {
	Batches uint64 `json:"batches"`
	Samples uint64 `json:"samples"`
	// PerRack lists sample counts keyed by rack id, sorted for stable
	// output.
	PerRack []RackCount `json:"per_rack"`
	// LastSampleNanos is the newest sample timestamp seen (simulated
	// nanoseconds); dashboards alert when it stalls.
	LastSampleNanos int64 `json:"last_sample_nanos"`
}

// RackCount is one rack's ingest volume.
type RackCount struct {
	Rack    uint32 `json:"rack"`
	Samples uint64 `json:"samples"`
}

// Snapshot returns a copy of the current counters.
func (s *IngestStats) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Batches:         s.batches,
		Samples:         s.samples,
		LastSampleNanos: s.lastSample.Nanoseconds(),
	}
	if len(s.perRack) > 0 {
		snap.PerRack = make([]RackCount, 0, len(s.perRack))
	}
	for rack, n := range s.perRack {
		snap.PerRack = append(snap.PerRack, RackCount{Rack: rack, Samples: n})
	}
	slices.SortFunc(snap.PerRack, func(a, b RackCount) int { return cmp.Compare(a.Rack, b.Rack) })
	return snap
}

// ServeHTTP implements http.Handler, answering GETs with the JSON
// snapshot.
func (s *IngestStats) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
