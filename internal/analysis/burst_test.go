package analysis

import (
	"math"
	"testing"

	"mburst/internal/simclock"
	"mburst/internal/stats"
)

// seriesOf builds 25µs spans from utilization values.
func seriesOf(utils ...float64) []UtilPoint {
	out := make([]UtilPoint, len(utils))
	for i, u := range utils {
		out[i] = UtilPoint{
			Start: simclock.Epoch.Add(simclock.Micros(int64(i) * 25)),
			End:   simclock.Epoch.Add(simclock.Micros(int64(i+1) * 25)),
			Util:  u,
		}
	}
	return out
}

func TestBurstSegmentation(t *testing.T) {
	series := seriesOf(0.1, 0.8, 0.9, 0.2, 0.7, 0.1, 0.1)
	bursts := Bursts(series, 0)
	if len(bursts) != 2 {
		t.Fatalf("bursts = %v", bursts)
	}
	if bursts[0].Duration() != simclock.Micros(50) {
		t.Errorf("first burst = %v, want 50µs", bursts[0].Duration())
	}
	if bursts[1].Duration() != simclock.Micros(25) {
		t.Errorf("second burst = %v, want 25µs", bursts[1].Duration())
	}
}

func TestBurstThresholdBoundary(t *testing.T) {
	// Exactly 50% is NOT hot ("exceeds 50%").
	series := seriesOf(0.5, 0.500001)
	bursts := Bursts(series, 0)
	if len(bursts) != 1 || bursts[0].Start != series[1].Start {
		t.Errorf("bursts = %v", bursts)
	}
	// Custom threshold.
	if got := Bursts(seriesOf(0.3, 0.1), 0.25); len(got) != 1 {
		t.Errorf("custom threshold bursts = %v", got)
	}
}

func TestBurstDurationsAndGaps(t *testing.T) {
	series := seriesOf(0.9, 0.1, 0.1, 0.9, 0.9, 0.1, 0.9)
	bursts := Bursts(series, 0)
	durs := BurstDurations(bursts)
	if len(durs) != 3 || durs[0] != 25 || durs[1] != 50 || durs[2] != 25 {
		t.Errorf("durations = %v", durs)
	}
	gaps := segmenterGaps(series)
	if len(gaps) != 2 || gaps[0] != 50 || gaps[1] != 25 {
		t.Errorf("gaps = %v", gaps)
	}
	if got := segmenterGaps(series[:2]); got != nil {
		t.Errorf("single-burst gaps = %v", got)
	}
}

// segmenterGaps returns the inter-burst gaps, in microseconds, that a
// default BurstSegmenter emits over a series.
func segmenterGaps(series []UtilPoint) []float64 {
	seg := NewBurstSegmenter(SegmenterConfig{})
	var out []float64
	for _, p := range series {
		if tr, ok := seg.Feed(p); ok && tr.HasGap {
			out = append(out, float64(tr.Gap)/float64(simclock.Microsecond))
		}
	}
	return out
}

func TestBurstAcrossMissedInterval(t *testing.T) {
	// A hot span with a longer (missed) hot span following merges into
	// one burst covering both.
	series := []UtilPoint{
		{Start: 0, End: simclock.Time(simclock.Micros(25)), Util: 0.9},
		{Start: simclock.Time(simclock.Micros(25)), End: simclock.Time(simclock.Micros(75)), Util: 0.8},
		{Start: simclock.Time(simclock.Micros(75)), End: simclock.Time(simclock.Micros(100)), Util: 0.1},
	}
	bursts := Bursts(series, 0)
	if len(bursts) != 1 || bursts[0].Duration() != simclock.Micros(75) {
		t.Errorf("bursts = %v", bursts)
	}
}

func TestHotSequenceAndFraction(t *testing.T) {
	series := seriesOf(0.9, 0.1, 0.9, 0.9)
	if f := HotFraction(series, 0); math.Abs(f-0.75) > 1e-12 {
		t.Errorf("hot fraction = %v", f)
	}
	if f := HotFraction(nil, 0); f != 0 {
		t.Errorf("empty hot fraction = %v", f)
	}
}

func TestHotFractionTimeWeighted(t *testing.T) {
	series := []UtilPoint{
		{Start: 0, End: simclock.Time(simclock.Micros(75)), Util: 0.9}, // 75µs hot
		{Start: simclock.Time(simclock.Micros(75)), End: simclock.Time(simclock.Micros(100)), Util: 0.1},
	}
	if f := HotFraction(series, 0); math.Abs(f-0.75) > 1e-12 {
		t.Errorf("weighted hot fraction = %v", f)
	}
}

func TestBurstMarkovMatchesHandCount(t *testing.T) {
	series := seriesOf(0.1, 0.9, 0.9, 0.1, 0.1, 0.9, 0.1)
	var mk stats.MarkovAcc
	for _, p := range series {
		mk.Observe(p.Util > DefaultHotThreshold)
	}
	m := mk.Model()
	// hot = F T T F F T F: transitions FT TT TF FF FT TF
	if m.Counts[0][1] != 2 || m.Counts[1][1] != 1 || m.Counts[1][0] != 2 || m.Counts[0][0] != 1 {
		t.Errorf("counts = %v", m.Counts)
	}
}

func TestPoissonTestDetectsMixture(t *testing.T) {
	// Mixture of tight gaps and huge idles — reject exponential.
	var gaps []float64
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			gaps = append(gaps, 30+float64(i%7))
		} else {
			gaps = append(gaps, 200000+float64(i)*100)
		}
	}
	res := PoissonTest(gaps)
	if !res.Rejects(1e-6) {
		t.Errorf("mixture not rejected: %+v", res)
	}
}
