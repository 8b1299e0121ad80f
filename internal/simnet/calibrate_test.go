package simnet

import (
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/workload"
)

// TestCalibrationShapes runs each application and checks the coarse shape
// targets from the paper (§5–§6), logging the measured values so parameter
// tuning is visible under -v. Sampling here reads counters directly at a
// 25 µs cadence, bypassing the collector, to isolate workload calibration.
func TestCalibrationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is not short")
	}
	type shape struct {
		downHot, upHot float64 // fraction of hot 25µs samples per class
		meanRun        float64 // mean hot-run length in samples (all ports)
		upShare        float64 // uplink share of hot samples
		drops          uint64
		peakBuf        float64
		avgDownUtil    float64
		avgUpUtil      float64
	}
	measure := func(app workload.App) shape {
		rack := topo.Default(32)
		n, err := New(Config{Rack: rack, Params: workload.DefaultParams(app), Seed: 12345})
		if err != nil {
			t.Fatal(err)
		}
		const interval = 25 * simclock.Microsecond
		const dur = 500 * simclock.Millisecond
		samples := int(simclock.Duration(dur).Ticks(interval))
		nports := rack.NumPorts()
		prev := make([]uint64, nports)
		hot := make([][]bool, nports)
		var sumDownUtil, sumUpUtil float64
		var peak float64
		for i := range hot {
			hot[i] = make([]bool, 0, samples)
		}
		// Warmup to reach steady state.
		n.Run(50 * simclock.Millisecond)
		for p := 0; p < nports; p++ {
			prev[p] = n.Switch().Port(p).Bytes(asic.TX)
		}
		n.Switch().ReadPeakBufferAndClear()
		for i := 0; i < samples; i++ {
			n.Run(interval)
			for p := 0; p < nports; p++ {
				cur := n.Switch().Port(p).Bytes(asic.TX)
				util := float64(cur-prev[p]) * 8 / (float64(n.Switch().Port(p).Speed()) * interval.Seconds())
				prev[p] = cur
				hot[p] = append(hot[p], util > 0.5)
				if rack.IsUplink(p) {
					sumUpUtil += util
				} else {
					sumDownUtil += util
				}
			}
			if pk := n.Switch().ReadPeakBufferAndClear(); pk > peak {
				peak = pk
			}
		}
		var s shape
		var downSamples, upSamples, downHot, upHot float64
		var runs, runLen float64
		for p := 0; p < nports; p++ {
			inRun := false
			for _, h := range hot[p] {
				if rack.IsUplink(p) {
					upSamples++
					if h {
						upHot++
					}
				} else {
					downSamples++
					if h {
						downHot++
					}
				}
				if h {
					runLen++
					if !inRun {
						runs++
						inRun = true
					}
				} else {
					inRun = false
				}
			}
		}
		s.downHot = downHot / downSamples
		s.upHot = upHot / upSamples
		if runs > 0 {
			s.meanRun = runLen / runs
		}
		if downHot+upHot > 0 {
			s.upShare = upHot / (downHot + upHot)
		}
		s.drops = n.Switch().TotalDropped()
		s.peakBuf = peak
		s.avgDownUtil = sumDownUtil / downSamples
		s.avgUpUtil = sumUpUtil / upSamples
		return s
	}

	web := measure(workload.Web)
	cache := measure(workload.Cache)
	hadoop := measure(workload.Hadoop)
	t.Logf("web:    downHot=%.4f upHot=%.4f meanRun=%.2f upShare=%.3f drops=%d peak=%.0f avgDown=%.3f avgUp=%.3f", web.downHot, web.upHot, web.meanRun, web.upShare, web.drops, web.peakBuf, web.avgDownUtil, web.avgUpUtil)
	t.Logf("cache:  downHot=%.4f upHot=%.4f meanRun=%.2f upShare=%.3f drops=%d peak=%.0f avgDown=%.3f avgUp=%.3f", cache.downHot, cache.upHot, cache.meanRun, cache.upShare, cache.drops, cache.peakBuf, cache.avgDownUtil, cache.avgUpUtil)
	t.Logf("hadoop: downHot=%.4f upHot=%.4f meanRun=%.2f upShare=%.3f drops=%d peak=%.0f avgDown=%.3f avgUp=%.3f", hadoop.downHot, hadoop.upHot, hadoop.meanRun, hadoop.upShare, hadoop.drops, hadoop.peakBuf, hadoop.avgDownUtil, hadoop.avgUpUtil)

	// Ordering targets from the paper (loose bands; the full-scale report's
	// values and orderings are held to EXPERIMENTS.md by the root
	// experiments_test.go):
	// hot-time ordering: hadoop > cache > web (Fig 6, Table 2 stationary).
	hotOf := func(s shape) float64 { return (s.downHot*16 + s.upHot*4) / 20 }
	if !(hotOf(hadoop) > hotOf(cache) && hotOf(cache) > hotOf(web)) {
		t.Errorf("hot-fraction ordering wrong: web=%.4f cache=%.4f hadoop=%.4f", hotOf(web), hotOf(cache), hotOf(hadoop))
	}
	// Cache bursts live on uplinks; web/hadoop on downlinks (Fig 9).
	if cache.upShare < 0.5 {
		t.Errorf("cache uplink share = %.3f, want > 0.5", cache.upShare)
	}
	if web.upShare > 0.35 || hadoop.upShare > 0.45 {
		t.Errorf("web/hadoop uplink shares too high: %.3f / %.3f", web.upShare, hadoop.upShare)
	}
	// Hadoop puts the most pressure on the buffer (Fig 10).
	if !(hadoop.peakBuf > cache.peakBuf && hadoop.peakBuf > web.peakBuf) {
		t.Errorf("hadoop peak buffer %.0f should dominate (cache %.0f, web %.0f)", hadoop.peakBuf, cache.peakBuf, web.peakBuf)
	}
}
