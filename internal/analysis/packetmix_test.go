package analysis

import (
	"math"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

func binSample(tUs int64, bins [asic.NumSizeBins]uint64) wire.Sample {
	return wire.Sample{
		Time: simclock.Epoch.Add(simclock.Micros(tUs)),
		Kind: asic.KindSizeBins,
		Dir:  asic.TX,
		Bins: bins,
	}
}

func TestPacketMixInsideOutside(t *testing.T) {
	// Two periods: first cold with small packets, second hot with MTU.
	line100us := uint64(float64(gbps10) / 8 * 100e-6)
	bytes := []wire.Sample{
		byteSample(0, 0),
		byteSample(100, line100us/10),                // 10% util: cold
		byteSample(200, line100us/10+line100us*9/10), // 90% util: hot
	}
	binsSeq := []wire.Sample{
		binSample(0, [asic.NumSizeBins]uint64{}),
		binSample(100, [asic.NumSizeBins]uint64{100, 0, 0, 0, 0, 5}),
		binSample(200, [asic.NumSizeBins]uint64{110, 0, 0, 0, 0, 505}),
	}
	res, err := packetMix(bytes, binsSeq, gbps10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.InsidePeriods != 1 || res.OutsidePeriods != 1 {
		t.Fatalf("periods = %d/%d", res.InsidePeriods, res.OutsidePeriods)
	}
	out := res.Outside.Normalized()
	in := res.Inside.Normalized()
	// Cold period: 100 small + 5 MTU.
	if math.Abs(out[0]-100.0/105) > 1e-9 {
		t.Errorf("outside small = %v", out[0])
	}
	// Hot period: 10 small + 500 MTU → MTU dominates.
	if in[5] < 0.9 {
		t.Errorf("inside MTU = %v", in[5])
	}
	if res.LargeShift() <= 0 {
		t.Errorf("large shift = %v, want positive", res.LargeShift())
	}
}

func TestPacketMixErrors(t *testing.T) {
	bytes := []wire.Sample{byteSample(0, 0), byteSample(100, 10)}
	if _, err := packetMix(bytes, bytes[:1], gbps10, 0); err == nil {
		t.Error("mismatched lengths accepted")
	}
	misaligned := []wire.Sample{binSample(0, [asic.NumSizeBins]uint64{}), binSample(150, [asic.NumSizeBins]uint64{})}
	if _, err := packetMix(bytes, misaligned, gbps10, 0); err == nil {
		t.Error("misaligned timestamps accepted")
	}
}

func TestNewSizeHistogramMatchesASICBins(t *testing.T) {
	h := NewSizeHistogram()
	if n := len(h.Normalized()); n != asic.NumSizeBins {
		t.Fatalf("bins = %d", n)
	}
	h.Add(1500)
	if h.Count(asic.NumSizeBins-1) != 1 {
		t.Error("MTU packet not in last bin")
	}
	h.Add(64)
	if h.Count(1) != 1 {
		t.Error("64B packet not in second bin")
	}
}

func TestLargeShiftZeroOutside(t *testing.T) {
	r := PacketMixResult{Inside: NewSizeHistogram(), Outside: NewSizeHistogram()}
	r.Inside.AddBin(5, 10)
	r.Outside.AddBin(0, 10) // zero large packets outside
	if got := r.LargeShift(); got != 0 {
		t.Errorf("shift with zero baseline = %v", got)
	}
}
