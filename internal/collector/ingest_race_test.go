package collector

import (
	"net"
	"sync"
	"testing"
	"time"

	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// TestIngestStatsConcurrentClients drives many simultaneous client
// connections into one collector.Serve and asserts that IngestStats (and
// its registry mirror) account every batch exactly once. Run under -race
// this exercises the Wrap handler from many connection goroutines at
// once — the production shape of the collector service.
func TestIngestStatsConcurrentClients(t *testing.T) {
	const (
		clients          = 8
		batchesPerClient = 25
		samplesPerBatch  = 64
	)

	reg := obs.NewRegistry()
	stats := &IngestStats{}
	stats.Attach(reg)
	sink := &MemSink{}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeConfigured(ln, stats.Wrap(sink.Handle), ServerConfig{Metrics: NewServerMetrics(reg)})

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(rack uint32) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("rack %d: dial: %v", rack, err)
				return
			}
			c, err := NewClientConfigured(conn, ClientConfig{Rack: rack, MaxBatch: samplesPerBatch})
			if err != nil {
				t.Errorf("rack %d: client: %v", rack, err)
				return
			}
			for b := 0; b < batchesPerClient; b++ {
				for s := 0; s < samplesPerBatch; s++ {
					c.Emit(wire.Sample{
						Time:  simclock.Time(int(rack)*1_000_000 + b*1000 + s),
						Port:  uint16(rack),
						Value: uint64(s),
					})
				}
			}
			if err := c.Close(); err != nil {
				t.Errorf("rack %d: close: %v", rack, err)
			}
		}(uint32(cl))
	}
	wg.Wait()
	// The clients have closed their sockets, but the server goroutines
	// drain them asynchronously; closing the server first would discard
	// buffered batches. Wait for every batch to land, then shut down.
	wantBatches := uint64(clients * batchesPerClient)
	wantSamples := uint64(clients * batchesPerClient * samplesPerBatch)
	deadline := time.Now().Add(10 * time.Second)
	for stats.Snapshot().Batches < wantBatches && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.LastErr(); err != nil {
		t.Fatalf("stream error: %v", err)
	}

	snap := stats.Snapshot()
	if snap.Batches != wantBatches {
		t.Errorf("batches = %d, want %d", snap.Batches, wantBatches)
	}
	if snap.Samples != wantSamples {
		t.Errorf("samples = %d, want %d", snap.Samples, wantSamples)
	}
	if len(snap.PerRack) != clients {
		t.Fatalf("racks = %d, want %d", len(snap.PerRack), clients)
	}
	for _, rc := range snap.PerRack {
		if rc.Samples != uint64(batchesPerClient*samplesPerBatch) {
			t.Errorf("rack %d samples = %d, want %d", rc.Rack, rc.Samples, batchesPerClient*samplesPerBatch)
		}
	}
	if got := len(sink.Samples()); got != int(wantSamples) {
		t.Errorf("sink samples = %d, want %d", got, wantSamples)
	}

	// The registry mirror must agree with the mutex-guarded snapshot.
	byName := map[string]float64{}
	for _, f := range reg.Snapshot().Families {
		for _, s := range f.Series {
			key := f.Name
			for _, l := range s.Labels {
				key += "{" + l.Key + "=" + l.Value + "}"
			}
			byName[key] = s.Value
		}
	}
	if got := byName["mburst_ingest_batches_total"]; got != float64(wantBatches) {
		t.Errorf("registry batches = %v, want %d", got, wantBatches)
	}
	if got := byName["mburst_ingest_samples_total"]; got != float64(wantSamples) {
		t.Errorf("registry samples = %v, want %d", got, wantSamples)
	}
	if got := byName[`mburst_ingest_rack_samples_total{rack=3}`]; got != float64(batchesPerClient*samplesPerBatch) {
		t.Errorf("registry rack 3 = %v, want %d", got, batchesPerClient*samplesPerBatch)
	}
	if got := byName["mburst_server_connections_total"]; got != clients {
		t.Errorf("registry connections = %v, want %d", got, clients)
	}
	if got := byName["mburst_server_active_connections"]; got != 0 {
		t.Errorf("active connections after close = %v", got)
	}
	if got := byName["mburst_ingest_last_sample_ns"]; got <= 0 {
		t.Errorf("last sample ns = %v", got)
	}
}
