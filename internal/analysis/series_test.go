package analysis

import (
	"math"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

const gbps10 = uint64(10_000_000_000)

// byteSample builds a cumulative byte sample at t µs with the given value.
func byteSample(tUs int64, value uint64) wire.Sample {
	return wire.Sample{
		Time:  simclock.Epoch.Add(simclock.Micros(tUs)),
		Kind:  asic.KindBytes,
		Dir:   asic.TX,
		Value: value,
	}
}

// rampSamples builds samples every stepUs with per-interval utilization
// from utils (fraction of 10G).
func rampSamples(stepUs int64, utils []float64) []wire.Sample {
	out := []wire.Sample{byteSample(0, 0)}
	var cum float64
	for i, u := range utils {
		cum += u * float64(gbps10) / 8 * float64(stepUs) / 1e6
		out = append(out, byteSample(int64(i+1)*stepUs, uint64(cum)))
	}
	return out
}

func TestSplit(t *testing.T) {
	samples := []wire.Sample{
		{Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Time: 1},
		{Port: 2, Dir: asic.TX, Kind: asic.KindBytes, Time: 1},
		{Port: 1, Dir: asic.RX, Kind: asic.KindBytes, Time: 1},
		{Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Time: 2},
	}
	m := Split(samples)
	if len(m) != 3 {
		t.Fatalf("split into %d series", len(m))
	}
	k := SeriesKey{Port: 1, Dir: asic.TX, Kind: asic.KindBytes}
	if got := len(m[k]); got != 2 {
		t.Errorf("series %v has %d samples", k, got)
	}
	if m[k][0].Time != 1 || m[k][1].Time != 2 {
		t.Error("order not preserved")
	}
}

func TestUtilizationSeries(t *testing.T) {
	samples := rampSamples(25, []float64{0.5, 1.0, 0.0, 0.25})
	series, err := UtilizationSeries(samples, gbps10)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1.0, 0.0, 0.25}
	if len(series) != len(want) {
		t.Fatalf("series length %d", len(series))
	}
	for i, w := range want {
		if math.Abs(series[i].Util-w) > 0.001 {
			t.Errorf("util[%d] = %v, want %v", i, series[i].Util, w)
		}
		if series[i].Span() != simclock.Micros(25) {
			t.Errorf("span[%d] = %v", i, series[i].Span())
		}
	}
}

func TestUtilizationSeriesWithMissedInterval(t *testing.T) {
	// A missed interval produces a double-length span; throughput is
	// still exact thanks to cumulative counters (Table 1 caption).
	line25 := uint64(float64(gbps10) / 8 * 25e-6)
	samples := []wire.Sample{
		byteSample(0, 0),
		byteSample(25, line25),   // 100% for 25µs
		byteSample(75, line25*2), // 50µs span at 50% avg
	}
	series, err := UtilizationSeries(samples, gbps10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(series[0].Util-1.0) > 0.001 {
		t.Errorf("util[0] = %v", series[0].Util)
	}
	if math.Abs(series[1].Util-0.5) > 0.001 {
		t.Errorf("util[1] = %v, want 0.5 over the doubled span", series[1].Util)
	}
	if series[1].Span() != simclock.Micros(50) {
		t.Errorf("span[1] = %v", series[1].Span())
	}
}

func TestUtilizationSeriesErrors(t *testing.T) {
	if _, err := UtilizationSeries([]wire.Sample{byteSample(0, 0)}, gbps10); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := UtilizationSeries(rampSamples(25, []float64{0.5}), 0); err == nil {
		t.Error("zero speed accepted")
	}
	bad := []wire.Sample{byteSample(0, 100), byteSample(25, 50)}
	if _, err := UtilizationSeries(bad, gbps10); err == nil {
		t.Error("regressing counter accepted")
	}
	dup := []wire.Sample{byteSample(25, 0), byteSample(25, 50)}
	if _, err := UtilizationSeries(dup, gbps10); err == nil {
		t.Error("duplicate timestamps accepted")
	}
}

func TestRebin(t *testing.T) {
	// 8 × 25µs spans alternating 1.0 / 0.0 → two 100µs bins at 0.5 avg.
	samples := rampSamples(25, []float64{1, 0, 1, 0, 1, 0, 1, 0})
	series, err := UtilizationSeries(samples, gbps10)
	if err != nil {
		t.Fatal(err)
	}
	coarse := rebin(series, simclock.Micros(100))
	if len(coarse) != 2 {
		t.Fatalf("rebinned into %d bins", len(coarse))
	}
	for i, p := range coarse {
		if math.Abs(p.Util-0.5) > 0.001 {
			t.Errorf("bin %d = %v, want 0.5", i, p.Util)
		}
	}
}

func TestRebinPartialOverlap(t *testing.T) {
	// One 50µs span at 1.0 crossing a 40µs bin boundary distributes
	// 40µs into bin 0 and 10µs into bin 1.
	series := []UtilPoint{{Start: 0, End: simclock.Time(simclock.Micros(50)), Util: 1}}
	coarse := rebin(series, simclock.Micros(40))
	if len(coarse) != 2 {
		t.Fatalf("bins = %d", len(coarse))
	}
	if math.Abs(coarse[0].Util-1.0) > 0.001 {
		t.Errorf("bin0 = %v", coarse[0].Util)
	}
	if math.Abs(coarse[1].Util-0.25) > 0.001 {
		t.Errorf("bin1 = %v, want 10/40", coarse[1].Util)
	}
}

func TestRebinEmptyAndPanic(t *testing.T) {
	if got := rebin(nil, simclock.Micros(10)); got != nil {
		t.Errorf("rebin of empty = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive width did not panic")
		}
	}()
	rebin([]UtilPoint{{}}, 0)
}

func TestUtils(t *testing.T) {
	series := []UtilPoint{{Util: 0.1}, {Util: 0.9}}
	got := Utils(series)
	if len(got) != 2 || got[0] != 0.1 || got[1] != 0.9 {
		t.Errorf("Utils = %v", got)
	}
}

func TestAlignedMatrixAligned(t *testing.T) {
	mk := func(utils ...float64) []UtilPoint {
		var out []UtilPoint
		for i, u := range utils {
			out = append(out, UtilPoint{
				Start: simclock.Epoch.Add(simclock.Micros(int64(i) * 40)),
				End:   simclock.Epoch.Add(simclock.Micros(int64(i+1) * 40)),
				Util:  u,
			})
		}
		return out
	}
	matrix, slots := AlignedMatrix([][]UtilPoint{mk(0.1, 0.2, 0.3), mk(0.9, 0.8, 0.7)})
	if len(slots) != 3 {
		t.Fatalf("slots = %d", len(slots))
	}
	if matrix[0][1] != 0.2 || matrix[1][2] != 0.7 {
		t.Errorf("matrix = %v", matrix)
	}
}

func TestAlignedMatrixMisaligned(t *testing.T) {
	a := []UtilPoint{{Start: 0, End: 100, Util: 1}}
	b := []UtilPoint{{Start: 0, End: 50, Util: 0.2}, {Start: 50, End: 100, Util: 0.8}}
	matrix, slots := AlignedMatrix([][]UtilPoint{a, b})
	if len(slots) != 2 {
		t.Fatalf("slots = %d", len(slots))
	}
	// Series a covers both slots with util 1.
	if matrix[0][0] != 1 || matrix[0][1] != 1 {
		t.Errorf("a row = %v", matrix[0])
	}
	if matrix[1][0] != 0.2 || matrix[1][1] != 0.8 {
		t.Errorf("b row = %v", matrix[1])
	}
}

func TestAlignedMatrixEmpty(t *testing.T) {
	m, s := AlignedMatrix(nil)
	if m != nil || s != nil {
		t.Error("empty input should give nil")
	}
	m, s = AlignedMatrix([][]UtilPoint{nil, nil})
	if m != nil || s != nil {
		t.Error("all-empty series should give nil")
	}
}
