package analysis

// Reference implementations: the slice-taking bodies the production
// functions had before they became feed loops over the accumulators in
// stream.go, moved here verbatim. They share no code with the
// accumulators, which is what makes the Test*Matches* comparisons in
// stream_test.go meaningful: accumulator and reference (and the adapter,
// where the package keeps one) must agree on points, stats and error
// text.

import (
	"fmt"
	"sort"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// refHotSequence classifies each span of a utilization series as hot or not.
func refHotSequence(series []UtilPoint, threshold float64) []bool {
	hot := make([]bool, len(series))
	for i, p := range series {
		hot[i] = p.Util > threshold
	}
	return hot
}

func refBursts(series []UtilPoint, threshold float64) []Burst {
	if threshold <= 0 {
		threshold = DefaultHotThreshold
	}
	var out []Burst
	var cur *Burst
	for _, p := range series {
		if p.Util > threshold {
			if cur == nil {
				out = append(out, Burst{Start: p.Start, End: p.End})
				cur = &out[len(out)-1]
			} else {
				cur.End = p.End
			}
		} else {
			cur = nil
		}
	}
	return out
}

// refInterBurstGaps returns the idle period between consecutive bursts in
// microseconds — the Fig 4 sample set.
func refInterBurstGaps(bursts []Burst) []float64 {
	if len(bursts) < 2 {
		return nil
	}
	out := make([]float64, 0, len(bursts)-1)
	for i := 1; i < len(bursts); i++ {
		gap := bursts[i].Start.Sub(bursts[i-1].End)
		out = append(out, float64(gap)/float64(simclock.Microsecond))
	}
	return out
}

func refUtilizationSeries(samples []wire.Sample, speedBps uint64) ([]UtilPoint, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("analysis: need >= 2 samples, have %d", len(samples))
	}
	if speedBps == 0 {
		return nil, fmt.Errorf("analysis: zero port speed")
	}
	out := make([]UtilPoint, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		span := cur.Time.Sub(prev.Time)
		if span <= 0 {
			return nil, fmt.Errorf("analysis: non-increasing timestamps at %d", i)
		}
		if cur.Value < prev.Value {
			return nil, fmt.Errorf("analysis: byte counter regressed at %d", i)
		}
		bits := float64(cur.Value-prev.Value) * 8
		out = append(out, UtilPoint{
			Start: prev.Time,
			End:   cur.Time,
			Util:  bits / (float64(speedBps) * span.Seconds()),
		})
	}
	return out, nil
}

func refRebin(series []UtilPoint, width simclock.Duration) []UtilPoint {
	if width <= 0 {
		panic("analysis: non-positive rebin width")
	}
	if len(series) == 0 {
		return nil
	}
	start := series[0].Start.Truncate(width)
	end := series[len(series)-1].End
	nbins := int((end.Sub(start) + width - 1) / simclock.Duration(width))
	if nbins <= 0 {
		nbins = 1
	}
	acc := make([]float64, nbins) // util·ns accumulated per bin
	for _, p := range series {
		// Distribute the span across the bins it overlaps.
		s, e := p.Start, p.End
		for s.Before(e) {
			bi := int(s.Sub(start) / simclock.Duration(width))
			if bi >= nbins {
				break
			}
			binEnd := start.Add(simclock.Duration(bi+1) * width)
			segEnd := e
			if binEnd.Before(segEnd) {
				segEnd = binEnd
			}
			acc[bi] += p.Util * float64(segEnd.Sub(s))
			s = segEnd
		}
	}
	out := make([]UtilPoint, nbins)
	for i := range out {
		binStart := start.Add(simclock.Duration(i) * width)
		out[i] = UtilPoint{
			Start: binStart,
			End:   binStart.Add(width),
			Util:  acc[i] / float64(width),
		}
	}
	return out
}

func refGapAwareUtilization(samples []wire.Sample, speedBps uint64) ([]UtilPoint, GapStats, error) {
	var st GapStats
	if speedBps == 0 {
		return nil, st, fmt.Errorf("analysis: zero port speed")
	}
	clean, dups, err := refDedupByTime(samples)
	if err != nil {
		return nil, st, err
	}
	st.Duplicates = dups
	if len(clean) < 2 {
		return nil, st, fmt.Errorf("analysis: need >= 2 distinct samples, have %d", len(clean))
	}

	out := make([]UtilPoint, 0, len(clean)-1)
	bytes := make([]uint64, 0, len(clean)-1) // per-span byte deltas, parallel to out
	for i := 1; i < len(clean); i++ {
		prev, cur := clean[i-1], clean[i]
		if cur.Time < prev.Time {
			return nil, st, fmt.Errorf("analysis: timestamps regress at %d", i)
		}
		if cur.Value < prev.Value {
			return nil, st, fmt.Errorf("analysis: byte counter regressed at %d", i)
		}
		if cur.Missed > 0 {
			st.MissedSpans++
		}
		delta := cur.Value - prev.Value
		out = append(out, UtilPoint{Start: prev.Time, End: cur.Time, Util: spanUtil(delta, cur.Time.Sub(prev.Time), speedBps)})
		bytes = append(bytes, delta)
		// Absorb a physically impossible catch-up into the stale spans
		// preceding it.
		for len(out) > 1 && out[len(out)-1].Util > maxPhysicalUtil {
			a, b := out[len(out)-2], out[len(out)-1]
			merged := bytes[len(bytes)-2] + bytes[len(bytes)-1]
			out = out[:len(out)-1]
			bytes = bytes[:len(bytes)-1]
			out[len(out)-1] = UtilPoint{Start: a.Start, End: b.End, Util: spanUtil(merged, b.End.Sub(a.Start), speedBps)}
			bytes[len(bytes)-1] = merged
			st.Merged++
		}
	}
	st.Points = len(out)
	st.Bytes = clean[len(clean)-1].Value - clean[0].Value
	return out, st, nil
}

// refDedupByTime drops samples sharing a timestamp with their predecessor,
// verifying the duplicates agree on the counter value.
func refDedupByTime(samples []wire.Sample) ([]wire.Sample, int, error) {
	if len(samples) == 0 {
		return nil, 0, nil
	}
	out := samples[:1]
	shared := true // still aliasing the input; copy lazily on first drop
	dups := 0
	for i := 1; i < len(samples); i++ {
		last := out[len(out)-1]
		if samples[i].Time == last.Time {
			if samples[i].Value != last.Value {
				return nil, 0, fmt.Errorf("analysis: duplicate timestamp %v with conflicting values %d vs %d",
					samples[i].Time, last.Value, samples[i].Value)
			}
			dups++
			if shared {
				cp := make([]wire.Sample, len(out), len(samples))
				copy(cp, out)
				out, shared = cp, false
			}
			continue
		}
		if shared {
			out = samples[:i+1]
		} else {
			out = append(out, samples[i])
		}
	}
	return out, dups, nil
}

func refPacketMixInsideOutside(byteSamples, binSamples []wire.Sample, speedBps uint64, threshold float64) (PacketMixResult, error) {
	if threshold <= 0 {
		threshold = DefaultHotThreshold
	}
	res := PacketMixResult{Inside: NewSizeHistogram(), Outside: NewSizeHistogram()}
	if len(byteSamples) != len(binSamples) {
		return res, fmt.Errorf("analysis: byte/bin sample counts differ: %d vs %d", len(byteSamples), len(binSamples))
	}
	series, err := refUtilizationSeries(byteSamples, speedBps)
	if err != nil {
		return res, err
	}
	for i := 1; i < len(binSamples); i++ {
		if binSamples[i].Time != byteSamples[i].Time {
			return res, fmt.Errorf("analysis: sample %d misaligned (%v vs %v)", i, binSamples[i].Time, byteSamples[i].Time)
		}
		p := series[i-1]
		target := res.Outside
		if p.Util > threshold {
			target = res.Inside
			res.InsidePeriods++
		} else {
			res.OutsidePeriods++
		}
		for b := 0; b < asic.NumSizeBins; b++ {
			delta := binSamples[i].Bins[b] - binSamples[i-1].Bins[b]
			target.AddBin(b, int64(delta))
		}
	}
	return res, nil
}

func refBufferVsHotPorts(ports [][]UtilPoint, peaks []wire.Sample, window simclock.Duration, threshold float64) ([]BufferWindow, error) {
	if window <= 0 {
		return nil, fmt.Errorf("analysis: non-positive window %v", window)
	}
	if threshold <= 0 {
		threshold = DefaultHotThreshold
	}
	type agg struct {
		hot  map[int]bool
		peak float64
	}
	aggs := make(map[simclock.Time]*agg)
	at := func(t simclock.Time) *agg {
		key := t.Truncate(window)
		a := aggs[key]
		if a == nil {
			a = &agg{hot: make(map[int]bool)}
			aggs[key] = a
		}
		return a
	}
	for pi, s := range ports {
		for _, p := range s {
			if p.Util > threshold {
				at(p.Start).hot[pi] = true
			}
		}
	}
	for _, s := range peaks {
		a := at(s.Time)
		if v := float64(s.Value); v > a.peak {
			a.peak = v
		}
	}
	out := make([]BufferWindow, 0, len(aggs))
	for start, a := range aggs {
		out = append(out, BufferWindow{Start: start, HotPorts: len(a.hot), PeakBytes: a.peak})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, nil
}

func refDropTimeSeries(dropSamples []wire.Sample, bin simclock.Duration) ([]uint64, error) {
	if bin <= 0 {
		return nil, fmt.Errorf("analysis: non-positive bin %v", bin)
	}
	if len(dropSamples) < 2 {
		return nil, fmt.Errorf("analysis: need >= 2 samples")
	}
	start := dropSamples[0].Time
	end := dropSamples[len(dropSamples)-1].Time
	n := int(end.Sub(start) / bin)
	if n <= 0 {
		n = 1
	}
	out := make([]uint64, n)
	prev := dropSamples[0]
	for _, s := range dropSamples[1:] {
		if s.Time.Sub(prev.Time) <= 0 {
			return nil, fmt.Errorf("analysis: non-increasing timestamps")
		}
		bi := int(prev.Time.Sub(start) / bin)
		if bi >= n {
			bi = n - 1
		}
		out[bi] += s.Value - prev.Value
		prev = s
	}
	return out, nil
}
