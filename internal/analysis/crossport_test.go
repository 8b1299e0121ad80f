package analysis

import (
	"math"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

func TestUplinkMAD(t *testing.T) {
	// Four uplinks, two slots: first balanced, second fully skewed.
	up := func(utils ...float64) []UtilPoint { return seriesOf(utils...) }
	mads := UplinkMAD([][]UtilPoint{
		up(0.5, 1.0),
		up(0.5, 0.0),
		up(0.5, 0.0),
		up(0.5, 0.0),
	})
	if len(mads) != 2 {
		t.Fatalf("mads = %v", mads)
	}
	if mads[0] != 0 {
		t.Errorf("balanced slot MAD = %v", mads[0])
	}
	if math.Abs(mads[1]-1.5) > 1e-12 {
		t.Errorf("skewed slot MAD = %v, want 1.5", mads[1])
	}
	if got := UplinkMAD(nil); got != nil {
		t.Errorf("empty MAD = %v", got)
	}
}

func TestServerCorrelationBlocks(t *testing.T) {
	// Two synchronized pairs, uncorrelated across pairs.
	a1 := seriesOf(0.1, 0.9, 0.1, 0.9, 0.2, 0.8)
	a2 := seriesOf(0.1, 0.8, 0.2, 0.9, 0.1, 0.9)
	b1 := seriesOf(0.9, 0.1, 0.8, 0.1, 0.9, 0.2)
	b2 := seriesOf(0.8, 0.2, 0.9, 0.1, 0.8, 0.1)
	corr := ServerCorrelation([][]UtilPoint{a1, a2, b1, b2})
	if corr[0][1] < 0.8 || corr[2][3] < 0.8 {
		t.Errorf("within-group correlation too low: %v %v", corr[0][1], corr[2][3])
	}
	if corr[0][2] > -0.5 {
		t.Errorf("across-group correlation = %v, expected strongly negative here", corr[0][2])
	}
	score := GroupBlockScore(corr, []int{0, 0, 1, 1})
	if score < 1 {
		t.Errorf("block score = %v, want >> 0", score)
	}
}

func TestGroupBlockScoreGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched labels did not panic")
		}
	}()
	GroupBlockScore([][]float64{{1}}, []int{0, 1})
}

func TestHotPortShare(t *testing.T) {
	// Two hot downlink samples and one hot uplink sample (the Fig 9
	// counts come from the campaign's runner in internal/core).
	share := HotShare{UplinkHot: 1, DownlinkHot: 2}
	if math.Abs(share.UplinkShare()-1.0/3) > 1e-12 {
		t.Errorf("uplink share = %v", share.UplinkShare())
	}
	if (HotShare{}).UplinkShare() != 0 {
		t.Error("empty share should be 0")
	}
}

func peakSample(tUs int64, v uint64) wire.Sample {
	return wire.Sample{Time: simclock.Epoch.Add(simclock.Micros(tUs)), Kind: asic.KindBufferPeak, Value: v}
}

func TestBufferVsHotPorts(t *testing.T) {
	// Window = 100µs. Two windows: the first has 2 hot ports and a high
	// peak, the second none and a low peak.
	ports := [][]UtilPoint{
		seriesOf(0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1),
		seriesOf(0.1, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1),
	}
	peaks := []wire.Sample{
		peakSample(30, 5000), peakSample(60, 9000),
		peakSample(130, 100), peakSample(160, 200),
	}
	wins, err := BufferVsHotPorts(ports, peaks, simclock.Micros(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Fatalf("windows = %+v", wins)
	}
	if wins[0].HotPorts != 2 || wins[0].PeakBytes != 9000 {
		t.Errorf("window 0 = %+v", wins[0])
	}
	if wins[1].HotPorts != 0 || wins[1].PeakBytes != 200 {
		t.Errorf("window 1 = %+v", wins[1])
	}
	if _, err := BufferVsHotPorts(ports, peaks, 0, 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestBufferBoxplots(t *testing.T) {
	wins := []BufferWindow{
		{HotPorts: 0, PeakBytes: 100},
		{HotPorts: 0, PeakBytes: 200},
		{HotPorts: 3, PeakBytes: 1000},
		{HotPorts: 3, PeakBytes: 800},
	}
	box := BufferBoxplots(wins)
	if len(box) != 2 {
		t.Fatalf("groups = %v", box)
	}
	// Normalized by the global max (1000).
	if box[3].Max != 1.0 {
		t.Errorf("group 3 max = %v", box[3].Max)
	}
	if box[0].Max != 0.2 {
		t.Errorf("group 0 max = %v", box[0].Max)
	}
	if box[0].N != 2 || box[3].N != 2 {
		t.Error("group sizes wrong")
	}
}

func TestMaxHotPortFraction(t *testing.T) {
	wins := []BufferWindow{{HotPorts: 3}, {HotPorts: 7}, {HotPorts: 1}}
	if f := MaxHotPortFraction(wins, 10); f != 0.7 {
		t.Errorf("fraction = %v", f)
	}
	if f := MaxHotPortFraction(nil, 10); f != 0 {
		t.Errorf("empty = %v", f)
	}
	if f := MaxHotPortFraction(wins, 0); f != 0 {
		t.Errorf("zero ports = %v", f)
	}
}
