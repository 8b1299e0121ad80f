package analysis

import (
	"math"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

func dropSample(tUs int64, v uint64) wire.Sample {
	return wire.Sample{Time: simclock.Epoch.Add(simclock.Micros(tUs)), Kind: asic.KindDrops, Value: v}
}

func TestCoarseWindow(t *testing.T) {
	// 1 second window at 25% utilization of 10G with 500 drops.
	bytes1s := uint64(float64(gbps10) / 8 * 0.25)
	bs := []wire.Sample{byteSample(0, 0), byteSample(1_000_000, bytes1s)}
	ds := []wire.Sample{dropSample(0, 100), dropSample(1_000_000, 600)}
	pt, err := CoarseWindow(bs, ds, gbps10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.Util-0.25) > 0.001 {
		t.Errorf("util = %v", pt.Util)
	}
	if math.Abs(pt.DropRate-500) > 0.001 {
		t.Errorf("drop rate = %v", pt.DropRate)
	}
}

func TestCoarseWindowErrors(t *testing.T) {
	one := []wire.Sample{byteSample(0, 0)}
	two := []wire.Sample{byteSample(0, 0), byteSample(10, 0)}
	if _, err := CoarseWindow(one, two, gbps10); err == nil {
		t.Error("short byte series accepted")
	}
	if _, err := CoarseWindow(two, one, gbps10); err == nil {
		t.Error("short drop series accepted")
	}
	same := []wire.Sample{byteSample(5, 0), byteSample(5, 10)}
	if _, err := CoarseWindow(same, two, gbps10); err == nil {
		t.Error("zero-span window accepted")
	}
}

func TestDropUtilCorrelation(t *testing.T) {
	// Drops independent of utilization → near-zero correlation (Fig 1).
	var pts []CoarsePoint
	for i := 0; i < 1000; i++ {
		util := float64(i%100) / 100
		drop := 0.0
		if i%37 == 0 { // sporadic µburst drops, unrelated to avg util
			drop = float64(100 + i%300)
		}
		pts = append(pts, CoarsePoint{Util: util, DropRate: drop})
	}
	r := DropUtilCorrelation(pts)
	if math.Abs(r) > 0.2 {
		t.Errorf("correlation = %v, want ~0", r)
	}
	// Perfectly coupled drops → near 1.
	pts = pts[:0]
	for i := 0; i < 100; i++ {
		u := float64(i) / 100
		pts = append(pts, CoarsePoint{Util: u, DropRate: u * 1000})
	}
	if r := DropUtilCorrelation(pts); r < 0.99 {
		t.Errorf("coupled correlation = %v", r)
	}
}

func TestDropTimeSeries(t *testing.T) {
	// Cumulative drops sampled every 100µs, binned at 300µs.
	samples := []wire.Sample{
		dropSample(0, 0),
		dropSample(100, 5),
		dropSample(200, 5),
		dropSample(300, 10),
		dropSample(400, 10),
		dropSample(500, 10),
		dropSample(600, 40),
	}
	bins, err := dropBins(samples, simclock.Micros(300))
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 {
		t.Fatalf("bins = %v", bins)
	}
	if bins[0] != 10 || bins[1] != 30 {
		t.Errorf("bins = %v, want [10 30]", bins)
	}
}

func TestDropTimeSeriesErrors(t *testing.T) {
	two := []wire.Sample{dropSample(0, 0), dropSample(10, 1)}
	if _, err := dropBins(two, 0); err == nil {
		t.Error("zero bin accepted")
	}
	if _, err := dropBins(two[:1], simclock.Micros(1)); err == nil {
		t.Error("single sample accepted")
	}
	bad := []wire.Sample{dropSample(10, 0), dropSample(10, 1)}
	if _, err := dropBins(bad, simclock.Micros(1)); err == nil {
		t.Error("non-increasing timestamps accepted")
	}
}

func TestDropBurstiness(t *testing.T) {
	bins := []uint64{0, 0, 50, 0, 0, 0, 10, 0}
	b := DropBurstiness(bins)
	if b.Total != 60 {
		t.Errorf("total = %d", b.Total)
	}
	if math.Abs(b.ZeroBins-0.75) > 1e-12 {
		t.Errorf("zero bins = %v", b.ZeroBins)
	}
	if math.Abs(b.TopBinShare-50.0/60) > 1e-12 {
		t.Errorf("top bin share = %v", b.TopBinShare)
	}
	if got := DropBurstiness(nil); got.Total != 0 {
		t.Errorf("empty = %+v", got)
	}
}
