package collector

import (
	"fmt"

	"mburst/internal/asic"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// CalibrationResult is the outcome of a sampling-interval calibration.
type CalibrationResult struct {
	// Interval is the recommended minimum sampling interval.
	Interval simclock.Duration
	// MissRate is the predicted miss rate at that interval.
	MissRate float64
	// BaseCost is the interference-free cost of one poll.
	BaseCost simclock.Duration
}

// Calibrate finds the minimum sampling interval for a counter set that
// keeps the predicted miss rate at or below targetLoss — automating what
// §4.1 did by hand ("we manually determine the minimum sampling interval
// possible while maintaining ∼1% sampling loss"). The prediction runs the
// poller's own cost model (jitter plus interrupt interference) over many
// simulated polls, so it matches what a live Poller will measure.
//
// The search walks a 1 µs grid from the base cost upward, which keeps the
// result stable and explainable; counters that can never meet the target
// within maxInterval return an error.
func Calibrate(cfg PollerConfig, sw *asic.Switch, targetLoss float64, maxInterval simclock.Duration, seed uint64) (CalibrationResult, error) {
	if targetLoss <= 0 || targetLoss >= 1 {
		return CalibrationResult{}, fmt.Errorf("collector: targetLoss %v out of (0,1)", targetLoss)
	}
	if maxInterval <= 0 {
		maxInterval = simclock.Millisecond
	}
	cfg.Interval = maxInterval // placeholder to pass validation
	probe, err := NewPoller(cfg, sw, rng.New(seed), EmitterFunc(func(wire.Sample) {}))
	if err != nil {
		return CalibrationResult{}, err
	}
	res := CalibrationResult{BaseCost: probe.BaseCost()}

	// Predicted miss rate at an interval: draw poll costs from the cost
	// model and replay the scheduling rule (next poll at the first
	// boundary after completion).
	const polls = 20000
	missRateAt := func(interval simclock.Duration) float64 {
		src := rng.New(seed ^ uint64(interval))
		sim := &Poller{cfg: cfg, src: src}
		sim.cfg.Interval = interval
		sim.baseCost = res.BaseCost
		var missed, taken uint64
		for i := 0; i < polls; i++ {
			cost := sim.pollCost(simclock.Epoch)
			overrun := int64(cost) / int64(interval)
			missed += uint64(overrun)
			taken++
		}
		return float64(missed) / float64(missed+taken)
	}

	start := res.BaseCost.Truncate(simclock.Microsecond)
	if start < simclock.Microsecond {
		start = simclock.Microsecond
	}
	for interval := start; interval <= maxInterval; interval += simclock.Microsecond {
		if rate := missRateAt(interval); rate <= targetLoss {
			res.Interval = interval
			res.MissRate = rate
			return res, nil
		}
	}
	return res, fmt.Errorf("collector: no interval ≤ %v meets loss target %v (base cost %v)",
		maxInterval, targetLoss, res.BaseCost)
}
