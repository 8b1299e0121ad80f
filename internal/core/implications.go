package core

import (
	"fmt"
	"strings"

	"mburst/internal/analysis"
	"mburst/internal/detect"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/workload"
)

// ImplicationsResult quantifies the §7 design implications on the
// reproduced traffic:
//
//   - Congestion control: the fraction of µbursts already over before a
//     congestion signal delayed by RTT/2 could reach the sender, for a
//     range of data-center RTTs.
//   - Load balancing: the fraction of inter-burst gaps long enough to
//     re-path a flow without reordering (gap > one-way latency), which is
//     the premise of flowlet switching.
//   - Detection: how fast an online detector learns a burst started, and
//     how much lag a smoothed (EWMA) estimator adds.
type ImplicationsResult struct {
	// SignalRTTs are the evaluated round-trip times.
	SignalRTTs []simclock.Duration
	// OverBeforeSignal[app][i] is the fraction of app's bursts shorter
	// than SignalRTTs[i]/2.
	OverBeforeSignal map[workload.App][]float64
	// RepathableGaps[app] is the fraction of inter-burst gaps exceeding
	// the one-way latency (taken as SignalRTTs[mid]/2).
	RepathableGaps map[workload.App]float64
	// ThresholdEval / EWMAEval evaluate online detectors against ground
	// truth on the web campaign.
	ThresholdEval detect.Evaluation
	EWMAEval      detect.Evaluation
}

// detectorApp is the campaign the online detectors are evaluated on
// (§7.3).
const detectorApp = workload.Web

// implicationDetectors builds one cell's online detectors: the immediate
// threshold detector and the EWMA-smoothed one.
func (e *Experiment) implicationDetectors() (thDet, ewDet detect.Detector, err error) {
	th := analysis.DefaultHotThreshold
	if thDet, err = detect.NewThresholdDetector(th, 1, 1); err != nil {
		return nil, nil, err
	}
	if ewDet, err = detect.NewEWMADetector(0.3, th, th*0.6); err != nil {
		return nil, nil, err
	}
	return thDet, ewDet, nil
}

// implications reduces byteCampaignJobs' results (durations and gaps
// wanted) to the §7 quantities: burst durations, gaps and — on the web
// campaign — detector events.
func implications(campaigns []*ByteStats) ImplicationsResult {
	res := ImplicationsResult{
		SignalRTTs: []simclock.Duration{
			50 * simclock.Microsecond,
			100 * simclock.Microsecond,
			250 * simclock.Microsecond,
		},
		OverBeforeSignal: make(map[workload.App][]float64),
		RepathableGaps:   make(map[workload.App]float64),
	}
	for _, st := range campaigns {
		fracs := make([]float64, len(res.SignalRTTs))
		for i, rtt := range res.SignalRTTs {
			fracs[i] = detect.FractionOverBeforeSignal(st.Durations, rtt/2)
		}
		res.OverBeforeSignal[st.App] = fracs

		oneWay := float64(res.SignalRTTs[len(res.SignalRTTs)/2]/2) / float64(simclock.Microsecond)
		long := 0
		for _, g := range st.Gaps {
			if g > oneWay {
				long++
			}
		}
		if len(st.Gaps) > 0 {
			res.RepathableGaps[st.App] = float64(long) / float64(len(st.Gaps))
		}

		if st.App == detectorApp {
			slack := 4 * ByteCampaignInterval
			res.ThresholdEval = detect.Evaluate(st.bursts, st.thEvents, slack)
			res.EWMAEval = detect.Evaluate(st.bursts, st.ewEvents, slack)
		}
	}
	return res
}

// Format renders the §7 summary.
func (r ImplicationsResult) Format() string {
	var b strings.Builder
	b.WriteString("§7 implications (measured on the reproduced traffic)\n")
	b.WriteString("  congestion control: fraction of bursts over before an RTT/2 signal arrives\n")
	for _, app := range workload.Apps {
		fracs, ok := r.OverBeforeSignal[app]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "    %-7s", app)
		for i, rtt := range r.SignalRTTs {
			fmt.Fprintf(&b, "  RTT=%v: %4.0f%%", rtt, fracs[i]*100)
		}
		b.WriteString("\n")
	}
	b.WriteString("  load balancing: fraction of inter-burst gaps exceeding one-way latency (flowlet-safe)\n")
	for _, app := range workload.Apps {
		if f, ok := r.RepathableGaps[app]; ok {
			fmt.Fprintf(&b, "    %-7s %4.0f%%\n", app, f*100)
		}
	}
	thLat := stats.NewECDF(r.ThresholdEval.LatenciesMicros)
	ewLat := stats.NewECDF(r.EWMAEval.LatenciesMicros)
	fmt.Fprintf(&b, "  online detection (web): threshold detector rate=%.0f%% p50 latency=%vµs; EWMA rate=%.0f%% p50 latency=%vµs\n",
		r.ThresholdEval.DetectionRate()*100, fmtQuantile(thLat, 0.5),
		r.EWMAEval.DetectionRate()*100, fmtQuantile(ewLat, 0.5))
	return strings.TrimRight(b.String(), "\n")
}

func fmtQuantile(e *stats.ECDF, q float64) string {
	if e.N() == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", e.Quantile(q))
}
