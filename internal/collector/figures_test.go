package collector

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/wire"
)

const figSpeed = uint64(10_000_000_000)

// figBatches synthesizes a two-rack, two-port byte-counter stream with
// alternating hot and idle stretches, chunked into wire batches the way
// the ingest path delivers them.
func figBatches(seed uint64, ticks, perBatch int) []*wire.Batch {
	src := rng.New(seed)
	cum := map[[2]uint32]uint64{}
	var batches []*wire.Batch
	for _, rack := range []uint32{0, 1} {
		var cur *wire.Batch
		for i := 0; i < ticks; i++ {
			if cur == nil {
				cur = &wire.Batch{Rack: rack}
			}
			for _, port := range []uint16{1, 2} {
				util := 0.05 + 0.1*src.Float64()
				if (i/5)%2 == 1 {
					util = 0.7 + 0.3*src.Float64()
				}
				k := [2]uint32{rack, uint32(port)}
				cum[k] += uint64(util * float64(figSpeed) / 8 * 25e-6)
				cur.Samples = append(cur.Samples, wire.Sample{
					Time:  simclock.Epoch.Add(simclock.Micros(int64(i) * 25)),
					Port:  port,
					Dir:   asic.TX,
					Kind:  asic.KindBytes,
					Value: cum[k],
				})
				// Non-byte samples must be ignored by the tap.
				cur.Samples = append(cur.Samples, wire.Sample{
					Time: simclock.Epoch.Add(simclock.Micros(int64(i) * 25)),
					Port: port, Dir: asic.TX, Kind: asic.KindDrops,
				})
			}
			if len(cur.Samples) >= perBatch {
				batches = append(batches, cur)
				cur = nil
			}
		}
		if cur != nil {
			batches = append(batches, cur)
		}
	}
	return batches
}

// TestLiveFiguresMatchesBatchAnalysis replays a synthetic ingest stream
// through the tap and checks every snapshot statistic against the batch
// pipeline (UtilizationSeries, Bursts, the gaps between consecutive
// Bursts, a MarkovAcc fed the hot/not-hot sequence) run on the same
// per-series samples.
func TestLiveFiguresMatchesBatchAnalysis(t *testing.T) {
	fig, err := NewLiveFigures(LiveFiguresConfig{
		SpeedOf:  func(uint32, uint16) uint64 { return figSpeed },
		IsUplink: func(_ uint32, port uint16) bool { return port == 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := figBatches(51, 200, 16)
	var forwarded int
	h := fig.Wrap(func(b *wire.Batch) { forwarded++ })
	perSeries := map[[2]uint32][]wire.Sample{}
	for _, b := range batches {
		h(b)
		for _, s := range b.Samples {
			if s.Kind == asic.KindBytes {
				perSeries[[2]uint32{b.Rack, uint32(s.Port)}] = append(perSeries[[2]uint32{b.Rack, uint32(s.Port)}], s)
			}
		}
	}
	if forwarded != len(batches) {
		t.Fatalf("Wrap forwarded %d batches, want %d", forwarded, len(batches))
	}

	snap := fig.Snapshot()
	if len(snap.Series) != 4 {
		t.Fatalf("snapshot has %d series, want 4", len(snap.Series))
	}
	var wantSamples uint64
	for _, s := range perSeries {
		wantSamples += uint64(len(s))
	}
	if snap.Samples != wantSamples {
		t.Errorf("Samples = %d, want %d (drop samples must not count)", snap.Samples, wantSamples)
	}

	var models []stats.MarkovModel
	wantUplinkHot, wantDownlinkHot := 0, 0
	for _, sf := range snap.Series {
		samples := perSeries[[2]uint32{sf.Rack, uint32(sf.Port)}]
		series, err := analysis.UtilizationSeries(samples, figSpeed)
		if err != nil {
			t.Fatalf("rack %d port %d: %v", sf.Rack, sf.Port, err)
		}
		var mk stats.MarkovAcc
		hot := 0
		for _, p := range series {
			isHot := p.Util > snap.Threshold
			mk.Observe(isHot)
			if isHot {
				hot++
			}
		}
		models = append(models, mk.Model())
		if sf.Port == 2 {
			wantUplinkHot += hot
		} else {
			wantDownlinkHot += hot
		}
		if sf.Points != len(series) || sf.HotPoints != hot {
			t.Errorf("rack %d port %d: points/hot = %d/%d, want %d/%d",
				sf.Rack, sf.Port, sf.Points, sf.HotPoints, len(series), hot)
		}

		bursts := analysis.Bursts(series, snap.Threshold)
		durations := analysis.BurstDurations(bursts)
		var gaps []float64
		for i := 1; i < len(bursts); i++ {
			gaps = append(gaps, float64(bursts[i].Start.Sub(bursts[i-1].End))/float64(simclock.Microsecond))
		}
		closed := len(bursts)
		active := false
		if closed > 0 && bursts[closed-1].End == series[len(series)-1].End {
			// The batch path closes a trailing burst the streaming
			// segmenter still holds open.
			closed--
			active = true
			durations = durations[:closed]
			if len(gaps) > closed-1 && closed >= 1 {
				gaps = gaps[:closed-1]
			}
		}
		if sf.Bursts != closed || sf.ActiveBurst != active {
			t.Errorf("rack %d port %d: bursts/active = %d/%v, want %d/%v",
				sf.Rack, sf.Port, sf.Bursts, sf.ActiveBurst, closed, active)
		}
		if d := stats.NewECDF(durations); d.N() > 0 {
			if sf.BurstP50Micros != d.Quantile(0.5) || sf.BurstP99Micros != d.Quantile(0.99) {
				t.Errorf("rack %d port %d: burst quantiles %v/%v, want %v/%v",
					sf.Rack, sf.Port, sf.BurstP50Micros, sf.BurstP99Micros, d.Quantile(0.5), d.Quantile(0.99))
			}
		}
		if g := stats.NewECDF(gaps); g.N() > 0 {
			if sf.GapP50Micros != g.Quantile(0.5) || sf.GapP99Micros != g.Quantile(0.99) {
				t.Errorf("rack %d port %d: gap quantiles %v/%v, want %v/%v",
					sf.Rack, sf.Port, sf.GapP50Micros, sf.GapP99Micros, g.Quantile(0.5), g.Quantile(0.99))
			}
		}

		var sum, maxU float64
		var hist [20]uint64
		for _, p := range series {
			sum += p.Util
			maxU = math.Max(maxU, p.Util)
			bi := int(p.Util * 20)
			if bi < 0 {
				bi = 0
			}
			if bi >= 20 {
				bi = 19
			}
			hist[bi]++
		}
		if len(series) > 0 && (sf.MeanUtil != sum/float64(len(series)) || sf.MaxUtil != maxU) {
			t.Errorf("rack %d port %d: mean/max = %v/%v, want %v/%v",
				sf.Rack, sf.Port, sf.MeanUtil, sf.MaxUtil, sum/float64(len(series)), maxU)
		}
		for bi, n := range hist {
			if sf.UtilHist[bi] != n {
				t.Errorf("rack %d port %d: hist[%d] = %d, want %d", sf.Rack, sf.Port, bi, sf.UtilHist[bi], n)
			}
		}
	}
	if snap.UplinkHot != wantUplinkHot || snap.DownlinkHot != wantDownlinkHot {
		t.Errorf("hot split = %d/%d, want %d/%d", snap.UplinkHot, snap.DownlinkHot, wantUplinkHot, wantDownlinkHot)
	}
	merged := stats.MergeMarkov(models...)
	if snap.Markov.Transitions != merged.N {
		t.Errorf("Markov transitions = %d, want %d", snap.Markov.Transitions, merged.N)
	}
	if !math.IsNaN(merged.P[0][1]) && snap.Markov.P01 != merged.P[0][1] {
		t.Errorf("P01 = %v, want %v", snap.Markov.P01, merged.P[0][1])
	}
	if !math.IsNaN(merged.P[1][1]) && snap.Markov.P11 != merged.P[1][1] {
		t.Errorf("P11 = %v, want %v", snap.Markov.P11, merged.P[1][1])
	}
}

// TestLiveFiguresConcurrent hammers Handle and Snapshot from separate
// goroutines; the race detector checks the locking, the final snapshot
// checks nothing was lost.
func TestLiveFiguresConcurrent(t *testing.T) {
	fig, err := NewLiveFigures(LiveFiguresConfig{
		SpeedOf: func(uint32, uint16) uint64 { return figSpeed },
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := figBatches(52, 400, 8)
	var feeders sync.WaitGroup
	for w := 0; w < 4; w++ {
		feeders.Add(1)
		go func(w int) {
			defer feeders.Done()
			for i := w; i < len(batches); i += 4 {
				fig.Handle(batches[i])
			}
		}(w)
	}
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
				fig.Snapshot()
			}
		}
	}()
	feeders.Wait()
	close(stop)
	<-snapped

	var want uint64
	for _, b := range batches {
		for _, s := range b.Samples {
			if s.Kind == asic.KindBytes {
				want++
			}
		}
	}
	if got := fig.Snapshot().Samples; got != want {
		t.Errorf("Samples = %d, want %d", got, want)
	}
}

func TestLiveFiguresHTTP(t *testing.T) {
	fig, err := NewLiveFigures(LiveFiguresConfig{
		SpeedOf: func(uint32, uint16) uint64 { return figSpeed },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range figBatches(53, 50, 16) {
		fig.Handle(b)
	}
	rec := httptest.NewRecorder()
	fig.ServeHTTP(rec, httptest.NewRequest("GET", "/figures", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /figures = %d", rec.Code)
	}
	var snap FiguresSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Samples == 0 || len(snap.Series) == 0 {
		t.Errorf("served snapshot is empty: %+v", snap)
	}
	rec = httptest.NewRecorder()
	fig.ServeHTTP(rec, httptest.NewRequest("POST", "/figures", nil))
	if rec.Code != 405 {
		t.Errorf("POST /figures = %d, want 405", rec.Code)
	}
	if _, err := NewLiveFigures(LiveFiguresConfig{}); err == nil {
		t.Error("nil SpeedOf accepted")
	}
}
