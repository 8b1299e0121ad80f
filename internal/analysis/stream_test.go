package analysis

// Accumulator-level equivalence: each accumulator and the independent
// reference in reference_test.go — and, where the package keeps one, the
// slice-taking adapter over the accumulator — must agree exactly — same
// values, same order, same errors — on clean and damaged inputs,
// hand-picked and testing/quick-generated. The composition-level
// equivalence lives in internal/core/equivalence_test.go; these tests
// localize a divergence to the specific accumulator.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/wire"
)

// randUtilSeries builds a contiguous utilization series with spans of
// stepUs and pseudo-random utilization levels, crossing the default
// threshold often.
func randUtilSeries(seed uint64, n int, stepUs int64) []UtilPoint {
	src := rng.New(seed)
	out := make([]UtilPoint, n)
	for i := range out {
		out[i] = UtilPoint{
			Start: simclock.Epoch.Add(simclock.Micros(int64(i) * stepUs)),
			End:   simclock.Epoch.Add(simclock.Micros(int64(i+1) * stepUs)),
			Util:  src.Float64() * 1.1,
		}
	}
	return out
}

func TestSortedKeysOrderPinned(t *testing.T) {
	m := map[SeriesKey]int{
		{Port: 2, Dir: asic.TX, Kind: asic.KindBytes}:    0,
		{Port: 0, Dir: asic.RX, Kind: asic.KindDrops}:    0,
		{Port: 0, Dir: asic.RX, Kind: asic.KindBytes}:    0,
		{Port: 0, Dir: asic.TX, Kind: asic.KindBytes}:    0,
		{Port: 10, Dir: asic.RX, Kind: asic.KindBytes}:   0,
		{Port: 2, Dir: asic.TX, Kind: asic.KindSizeBins}: 0,
	}
	want := []SeriesKey{
		{Port: 0, Dir: asic.RX, Kind: asic.KindBytes},
		{Port: 0, Dir: asic.RX, Kind: asic.KindDrops},
		{Port: 0, Dir: asic.TX, Kind: asic.KindBytes},
		{Port: 2, Dir: asic.TX, Kind: asic.KindBytes},
		{Port: 2, Dir: asic.TX, Kind: asic.KindSizeBins},
		{Port: 10, Dir: asic.RX, Kind: asic.KindBytes},
	}
	for trial := 0; trial < 3; trial++ { // map order varies; result must not
		if got := SortedKeys(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
	if got := SortedKeys(map[SeriesKey]int{}); got != nil {
		if len(got) != 0 {
			t.Errorf("SortedKeys(empty) = %v", got)
		}
	}
}

func TestSeriesDemuxRoutesInOrder(t *testing.T) {
	samples := []wire.Sample{
		{Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Time: 1, Value: 10},
		{Port: 2, Dir: asic.TX, Kind: asic.KindBytes, Time: 1, Value: 20},
		{Port: 1, Dir: asic.TX, Kind: asic.KindBytes, Time: 2, Value: 11},
		{Port: 1, Dir: asic.RX, Kind: asic.KindBytes, Time: 2, Value: 5},
		{Port: 2, Dir: asic.TX, Kind: asic.KindBytes, Time: 2, Value: 21},
	}
	got := make(map[SeriesKey][]wire.Sample)
	demux := NewSeriesDemux(func(key SeriesKey) SampleSink {
		if key.Dir == asic.RX {
			return nil // a nil sink drops the series
		}
		return func(s wire.Sample) error {
			got[key] = append(got[key], s)
			return nil
		}
	})
	for _, s := range samples {
		if err := demux.Feed(s); err != nil {
			t.Fatal(err)
		}
	}
	split := Split(samples)
	for _, key := range SortedKeys(split) {
		if key.Dir == asic.RX {
			if _, ok := got[key]; ok {
				t.Errorf("nil-sink series %v received samples", key)
			}
			continue
		}
		if !reflect.DeepEqual(got[key], split[key]) {
			t.Errorf("series %v: demux %v, split %v", key, got[key], split[key])
		}
	}
}

// Feed loops for the tests that hold a slice. The package keeps no such
// twin of these accumulators: no caller outside the tests holds one.

// rebin feeds a utilization series through a RebinAcc.
func rebin(series []UtilPoint, width simclock.Duration) []UtilPoint {
	acc := NewRebinAcc(width)
	for _, p := range series {
		acc.Add(p)
	}
	return acc.Points()
}

// dropBins feeds a cumulative drop-counter series through a DropBinAcc,
// stopping at the first latched error.
func dropBins(dropSamples []wire.Sample, bin simclock.Duration) ([]uint64, error) {
	acc, err := NewDropBinAcc(bin)
	if err != nil {
		return nil, err
	}
	for _, s := range dropSamples {
		if acc.Add(s) != nil {
			break
		}
	}
	return acc.Bins()
}

// packetMix feeds one port's byte and size-bin series through a
// PacketMixAcc, interleaved as a campaign would, so the pairing queues
// stay O(1) deep.
func packetMix(byteSamples, binSamples []wire.Sample, speedBps uint64, threshold float64) (PacketMixResult, error) {
	acc := NewPacketMixAcc(speedBps, threshold)
	for i := 0; i < len(byteSamples) || i < len(binSamples); i++ {
		if i < len(byteSamples) {
			acc.AddByte(byteSamples[i])
		}
		if i < len(binSamples) {
			acc.AddBin(binSamples[i])
		}
	}
	return acc.Result()
}

// ---------------------------------------------------------------------------
// testing/quick generators. The hand-picked tables below pin the cases a
// reader should see; the generated ones cover what nobody thought to write
// down. The generator seed is fixed so a failing input reproduces.

func quickCfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(1))}
}

// errText is the comparable form of an error: "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameText reports whether every error carries the same text (or all are
// nil).
func sameText(errs ...error) bool {
	for _, e := range errs[1:] {
		if errText(e) != errText(errs[0]) {
			return false
		}
	}
	return true
}

// quickLen draws a series length, over-weighting the 0/1/2 edge cases.
func quickLen(r *rand.Rand, size int) int {
	if r.Intn(5) == 0 {
		return r.Intn(3)
	}
	return r.Intn(size + 1)
}

// damagedBytes is a generated cumulative byte-counter series: random
// spans and deltas (in some series above line rate, so the gap-aware
// merge cascade runs), sprinkled with harmless damage (agreeing duplicates, Missed > 0)
// and up to two fatal damages (conflicting duplicate, time regression,
// value regression), occasionally at zero port speed.
type damagedBytes struct {
	Samples []wire.Sample
	Speed   uint64
	// Fatal counts the injected damages that make reconstruction fail.
	Fatal int
}

func (damagedBytes) Generate(r *rand.Rand, size int) reflect.Value {
	d := damagedBytes{Speed: gbps10}
	if r.Intn(12) == 0 {
		d.Speed = 0
	}
	n := quickLen(r, size)
	fatalAt := map[int]bool{}
	for k := r.Intn(3); k > 0 && n > 1; k-- {
		fatalAt[1+r.Intn(n-1)] = true
	}
	// Per-series load ceiling as a fraction of line rate (1250 B/µs at
	// 10G): below 1 no span is super-physical, above it some are.
	load := r.Float64() * 1.5
	at, cum := simclock.Epoch, uint64(0)
	for i := 0; i < n; i++ {
		us := 1 + r.Int63n(100)
		at = at.Add(simclock.Micros(us))
		cum += uint64(r.Int63n(1 + int64(load*1250*float64(us))))
		s := wire.Sample{Time: at, Kind: asic.KindBytes, Dir: asic.TX, Value: cum}
		if i > 0 {
			prev := d.Samples[i-1]
			switch {
			case fatalAt[i]:
				d.Fatal++
				switch r.Intn(3) {
				case 0:
					s.Time, s.Value = prev.Time, prev.Value+1
				case 1:
					s.Time = prev.Time - 1
				case 2:
					s.Value = prev.Value - 1 // wraps at 0: still a regression
				}
			case r.Intn(15) == 0:
				s = prev
			case r.Intn(15) == 0:
				s.Missed = uint32(1 + r.Intn(3))
			}
		}
		d.Samples = append(d.Samples, s)
	}
	return reflect.ValueOf(d)
}

// utilSeries is a generated contiguous utilization series with uneven
// spans and levels that cross (and sometimes sit exactly on) the default
// threshold.
type utilSeries []UtilPoint

func (utilSeries) Generate(r *rand.Rand, size int) reflect.Value {
	out := make(utilSeries, quickLen(r, 4*size))
	at := simclock.Epoch.Add(simclock.Micros(r.Int63n(1000)))
	for i := range out {
		end := at.Add(simclock.Micros(1 + r.Int63n(200)))
		util := r.Float64() * 1.1
		if r.Intn(10) == 0 {
			util = DefaultHotThreshold
		}
		out[i] = UtilPoint{Start: at, End: end, Util: util}
		at = end
	}
	return reflect.ValueOf(out)
}

// ---------------------------------------------------------------------------

// checkUtil compares adapter, accumulator and reference on one series.
func checkUtil(t *testing.T, samples []wire.Sample, speed uint64) bool {
	t.Helper()
	refSeries, refErr := refUtilizationSeries(samples, speed)
	adSeries, adErr := UtilizationSeries(samples, speed)

	u := NewUtilState(speed)
	var accSeries []UtilPoint
	for _, s := range samples {
		p, ok, err := u.Feed(s)
		if err != nil {
			accSeries = nil
			break
		}
		if ok {
			accSeries = append(accSeries, p)
		}
	}
	accErr := u.Close()

	if !sameText(refErr, adErr, accErr) {
		t.Errorf("errors diverge: reference %q, adapter %q, accumulator %q", errText(refErr), errText(adErr), errText(accErr))
		return false
	}
	if !reflect.DeepEqual(refSeries, adSeries) || (refErr == nil && !reflect.DeepEqual(refSeries, accSeries)) {
		t.Errorf("series diverge:\nreference:   %v\nadapter:     %v\naccumulator: %v", refSeries, adSeries, accSeries)
		return false
	}
	return true
}

func TestUtilStateMatchesUtilizationSeries(t *testing.T) {
	regress := rampSamples(25, []float64{0.5, 0.5})
	regress[2].Value = regress[1].Value - 1
	stall := rampSamples(25, []float64{0.5, 0.5})
	stall[2].Time = stall[1].Time

	cases := []struct {
		name    string
		samples []wire.Sample
		speed   uint64
	}{
		{"clean", rampSamples(25, []float64{0.5, 1.0, 0.0, 0.25}), gbps10},
		{"empty", nil, gbps10},
		{"single", rampSamples(25, nil), gbps10},
		{"zero-speed", rampSamples(25, []float64{0.5}), 0},
		{"zero-speed-single", rampSamples(25, nil), 0},
		{"regressing-counter", regress, gbps10},
		{"non-increasing-time", stall, gbps10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkUtil(t, tc.samples, tc.speed) })
	}
	t.Run("quick", func(t *testing.T) {
		prop := func(d damagedBytes) bool { return checkUtil(t, d.Samples, d.Speed) }
		if err := quick.Check(prop, quickCfg(500)); err != nil {
			t.Error(err)
		}
	})
}

// checkBursts compares Bursts, a BurstSegmenter and the reference on
// segments and inter-burst gaps, and a MarkovAcc fed the hot/not-hot
// classification against a transition count over the reference hot
// sequence.
func checkBursts(t *testing.T, s []UtilPoint, th float64) bool {
	t.Helper()
	refB := refBursts(s, th)
	refGaps := refInterBurstGaps(refB)

	seg := NewBurstSegmenter(SegmenterConfig{HotAbove: th})
	var accB []Burst
	var accGaps []float64
	handle := func(tr Transition, ok bool) {
		if !ok {
			return
		}
		switch tr.Kind {
		case SegOpen:
			if tr.HasGap {
				accGaps = append(accGaps, float64(tr.Gap)/float64(simclock.Microsecond))
			}
		case SegClose:
			accB = append(accB, tr.Burst)
		}
	}
	for _, p := range s {
		handle(seg.Feed(p))
	}
	handle(seg.Flush())

	ok := true
	if adB := Bursts(s, th); !reflect.DeepEqual(refB, adB) || !reflect.DeepEqual(refB, accB) {
		t.Errorf("bursts diverge:\nreference:   %v\nadapter:     %v\naccumulator: %v", refB, adB, accB)
		ok = false
	}
	if !reflect.DeepEqual(refGaps, accGaps) {
		t.Errorf("gaps diverge:\nreference:   %v\naccumulator: %v", refGaps, accGaps)
		ok = false
	}

	hotAbove := th
	if hotAbove <= 0 {
		hotAbove = DefaultHotThreshold
	}
	var counts [2][2]int64
	hot := refHotSequence(s, hotAbove)
	for i := 1; i < len(hot); i++ {
		a, b := 0, 0
		if hot[i-1] {
			a = 1
		}
		if hot[i] {
			b = 1
		}
		counts[a][b]++
	}
	var mk stats.MarkovAcc
	for _, p := range s {
		mk.Observe(p.Util > hotAbove)
	}
	if m := mk.Model(); m.Counts != counts {
		t.Errorf("markov counts = %v, hand count over the hot sequence = %v", m.Counts, counts)
		ok = false
	}
	return ok
}

func TestBurstSegmenterMatchesBursts(t *testing.T) {
	const th = DefaultHotThreshold
	series := map[string][]UtilPoint{
		"random":       randUtilSeries(7, 400, 25),
		"random2":      randUtilSeries(11, 997, 25),
		"empty":        nil,
		"single-hot":   {{Start: 0, End: 25, Util: 0.9}},
		"single-cold":  {{Start: 0, End: 25, Util: 0.1}},
		"all-hot":      {{Start: 0, End: 25, Util: 0.9}, {Start: 25, End: 50, Util: 0.8}},
		"ends-hot":     {{Start: 0, End: 25, Util: 0.1}, {Start: 25, End: 50, Util: 0.8}},
		"hot-cold-hot": {{Start: 0, End: 25, Util: 0.9}, {Start: 25, End: 50, Util: 0.1}, {Start: 50, End: 75, Util: 0.9}},
		"threshold-eq": {{Start: 0, End: 25, Util: th}, {Start: 25, End: 50, Util: th}},
		"cold-everywhere": {
			{Start: 0, End: 25, Util: 0.2}, {Start: 25, End: 50, Util: 0.3}, {Start: 50, End: 75, Util: 0.1},
		},
	}
	for name, s := range series {
		t.Run(name, func(t *testing.T) { checkBursts(t, s, th) })
	}
	t.Run("quick", func(t *testing.T) {
		thresholds := []float64{th, 0, -1, 0.01, 0.9, 2}
		prop := func(s utilSeries, pick uint8) bool {
			return checkBursts(t, s, thresholds[int(pick)%len(thresholds)])
		}
		if err := quick.Check(prop, quickCfg(300)); err != nil {
			t.Error(err)
		}
	})
}

// panicText runs f and returns what it panicked with, or nil.
func panicText(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

// checkRebin compares a RebinAcc and the reference on one series,
// including the non-positive-width panic.
func checkRebin(t *testing.T, series []UtilPoint, w simclock.Duration) bool {
	t.Helper()
	var ref, acc []UtilPoint
	refP := panicText(func() { ref = refRebin(series, w) })
	accP := panicText(func() { acc = rebin(series, w) })
	if refP != accP {
		t.Errorf("width %v: panics diverge: reference %v, accumulator %v", w, refP, accP)
		return false
	}
	if !reflect.DeepEqual(ref, acc) {
		t.Errorf("width %v: rebin diverges:\nreference:   %v\naccumulator: %v", w, ref, acc)
		return false
	}
	return true
}

func TestRebinAccMatchesRebin(t *testing.T) {
	widths := []simclock.Duration{
		40 * simclock.Microsecond,
		100 * simclock.Microsecond,
		simclock.Millisecond,
		7 * simclock.Millisecond, // deliberately not a divisor of the span
		0,                        // both must panic alike
	}
	series := randUtilSeries(13, 500, 40)
	for _, w := range widths {
		checkRebin(t, series, w)
	}
	if got := NewRebinAcc(simclock.Millisecond).Points(); got != nil {
		t.Errorf("empty rebin = %v, want nil", got)
	}
	t.Run("quick", func(t *testing.T) {
		prop := func(s utilSeries, wUs uint16) bool {
			return checkRebin(t, s, simclock.Micros(int64(wUs)-5)) // a few non-positive widths too
		}
		if err := quick.Check(prop, quickCfg(300)); err != nil {
			t.Error(err)
		}
	})
}

// checkDropBins compares a DropBinAcc and the reference.
func checkDropBins(t *testing.T, samples []wire.Sample, bin simclock.Duration) bool {
	t.Helper()
	ref, refErr := refDropTimeSeries(samples, bin)
	got, accErr := dropBins(samples, bin)
	if !sameText(refErr, accErr) {
		t.Errorf("errors diverge: reference %q, accumulator %q", errText(refErr), errText(accErr))
		return false
	}
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("bins diverge:\nreference:   %v\naccumulator: %v", ref, got)
		return false
	}
	return true
}

func TestDropBinAccMatchesDropTimeSeries(t *testing.T) {
	drops := func(n int, seed uint64) []wire.Sample {
		src := rng.New(seed)
		out := make([]wire.Sample, n)
		var cum uint64
		for i := range out {
			if src.Float64() < 0.3 {
				cum += uint64(src.Intn(50))
			}
			out[i] = wire.Sample{
				Time:  simclock.Epoch.Add(simclock.Micros(int64(i) * 250)),
				Kind:  asic.KindDrops,
				Dir:   asic.TX,
				Value: cum,
			}
		}
		return out
	}
	stalled := drops(10, 3)
	stalled[5].Time = stalled[4].Time

	cases := []struct {
		name    string
		samples []wire.Sample
		bin     simclock.Duration
	}{
		{"clean", drops(200, 1), simclock.Millisecond},
		{"uneven-bin", drops(200, 2), 777 * simclock.Microsecond},
		{"span-shorter-than-bin", drops(5, 4), simclock.Second},
		{"two-samples", drops(2, 5), simclock.Millisecond},
		{"one-sample", drops(1, 6), simclock.Millisecond},
		{"non-increasing", stalled, simclock.Millisecond},
		{"non-positive-bin", drops(10, 7), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkDropBins(t, tc.samples, tc.bin) })
	}
	t.Run("quick", func(t *testing.T) {
		// A drop counter is one more cumulative counter: reuse the damaged
		// byte generator (duplicates and time regressions are the
		// non-increasing case here; value regressions wrap alike).
		prop := func(d damagedBytes, binUs uint16) bool {
			return checkDropBins(t, d.Samples, simclock.Micros(int64(binUs)-5))
		}
		if err := quick.Check(prop, quickCfg(500)); err != nil {
			t.Error(err)
		}
	})
}

func TestSeriesEndpointsMatchesCoarseWindow(t *testing.T) {
	bytes := rampSamples(250, []float64{0.5, 0.7, 0.1, 0.9})
	dropSamples := []wire.Sample{
		{Time: bytes[0].Time, Kind: asic.KindDrops, Value: 3},
		{Time: bytes[2].Time, Kind: asic.KindDrops, Value: 10},
		{Time: bytes[4].Time, Kind: asic.KindDrops, Value: 12},
	}
	lengths := [][2]int{{len(bytes), 3}, {2, 2}, {1, 2}, {2, 1}, {0, 0}}
	for _, l := range lengths {
		t.Run(fmt.Sprintf("%dx%d", l[0], l[1]), func(t *testing.T) {
			b, d := bytes[:l[0]], dropSamples[:l[1]]
			want, wantErr := CoarseWindow(b, d, gbps10)

			var be, de SeriesEndpoints
			for _, s := range b {
				be.Add(s)
			}
			for _, s := range d {
				de.Add(s)
			}
			got, gotErr := CoarseWindow(be.Slice(), de.Slice(), gbps10)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("batch err %v, endpoint err %v", wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("batch err %q, endpoint err %q", wantErr, gotErr)
				}
				return
			}
			if want != got {
				t.Errorf("coarse point diverges: batch %+v, endpoints %+v", want, got)
			}
		})
	}
}

// checkPacketMix compares a PacketMixAcc and the reference on histograms,
// period counts and error text. The accumulator is fed through Feed, as
// the campaign's Fig 5 runner feeds it, so routing by counter kind is
// covered too.
func checkPacketMix(t *testing.T, bytes, bins []wire.Sample, speed uint64, th float64) bool {
	t.Helper()
	ref, refErr := refPacketMixInsideOutside(bytes, bins, speed, th)

	acc := NewPacketMixAcc(speed, th)
	// Interleave as a campaign would: byte then bin per poll.
	for i := 0; i < len(bytes) || i < len(bins); i++ {
		if i < len(bytes) {
			acc.Feed(bytes[i])
		}
		if i < len(bins) {
			acc.Feed(bins[i])
		}
	}
	got, accErr := acc.Result()
	if !sameText(refErr, accErr) {
		t.Errorf("errors diverge: reference %q, accumulator %q", errText(refErr), errText(accErr))
		return false
	}
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("mix diverges:\nreference:   %+v\naccumulator: %+v", ref, got)
		return false
	}
	return true
}

// damagedMix is a generated byte/size-bin campaign of one port: the byte
// side is a damagedBytes series, the bin side shares its timestamps except
// where a count mismatch or a misaligned pair is injected.
type damagedMix struct {
	Bytes damagedBytes
	Bins  []wire.Sample
}

func (damagedMix) Generate(r *rand.Rand, size int) reflect.Value {
	m := damagedMix{Bytes: damagedBytes{}.Generate(r, size).Interface().(damagedBytes)}
	var cum [asic.NumSizeBins]uint64
	for _, b := range m.Bytes.Samples {
		for i := range cum {
			cum[i] += uint64(r.Intn(9))
		}
		m.Bins = append(m.Bins, wire.Sample{Time: b.Time, Kind: asic.KindSizeBins, Dir: asic.TX, Bins: cum})
	}
	switch n := len(m.Bins); {
	case n > 0 && r.Intn(8) == 0:
		m.Bins = m.Bins[:n-1]
	case n > 1 && r.Intn(6) == 0:
		i := 1 + r.Intn(n-1)
		m.Bins[i].Time = m.Bins[i].Time.Add(simclock.Microsecond)
	}
	return reflect.ValueOf(m)
}

func TestPacketMixAccMatchesBatch(t *testing.T) {
	mix := func(n int, seed uint64) ([]wire.Sample, []wire.Sample) {
		src := rng.New(seed)
		bytes := make([]wire.Sample, n)
		bins := make([]wire.Sample, n)
		var cum uint64
		var cumBins [asic.NumSizeBins]uint64
		for i := 0; i < n; i++ {
			at := simclock.Epoch.Add(simclock.Micros(int64(i) * 100))
			// Alternate hot and cold stretches so both histograms fill.
			util := 0.1
			if (i/7)%2 == 1 {
				util = 0.9
			}
			cum += uint64(util * float64(gbps10) / 8 * 100e-6)
			for b := range cumBins {
				cumBins[b] += uint64(src.Intn(9))
			}
			bytes[i] = wire.Sample{Time: at, Kind: asic.KindBytes, Dir: asic.TX, Value: cum}
			bins[i] = wire.Sample{Time: at, Kind: asic.KindSizeBins, Dir: asic.TX, Bins: cumBins}
		}
		return bytes, bins
	}

	t.Run("clean", func(t *testing.T) {
		bytes, bins := mix(300, 21)
		checkPacketMix(t, bytes, bins, gbps10, 0)
	})
	t.Run("counts-differ", func(t *testing.T) {
		bytes, bins := mix(50, 22)
		checkPacketMix(t, bytes, bins[:49], gbps10, 0)
	})
	t.Run("misaligned", func(t *testing.T) {
		bytes, bins := mix(50, 23)
		bins[30].Time = bins[30].Time.Add(simclock.Microsecond)
		checkPacketMix(t, bytes, bins, gbps10, 0)
	})
	t.Run("short-series", func(t *testing.T) {
		bytes, bins := mix(1, 24)
		checkPacketMix(t, bytes, bins, gbps10, 0)
	})
	t.Run("regressing-bytes", func(t *testing.T) {
		bytes, bins := mix(50, 25)
		bytes[20].Value = bytes[19].Value - 1
		checkPacketMix(t, bytes, bins, gbps10, 0)
	})
	t.Run("quick", func(t *testing.T) {
		prop := func(m damagedMix, lowThreshold bool) bool {
			th := 0.0
			if lowThreshold {
				th = 0.05
			}
			return checkPacketMix(t, m.Bytes.Samples, m.Bins, m.Bytes.Speed, th)
		}
		if err := quick.Check(prop, quickCfg(500)); err != nil {
			t.Error(err)
		}
	})
}

// checkBufferWindows compares BufferVsHotPorts, a BufferWindowAcc and the
// reference, including the non-positive-window constructor error.
func checkBufferWindows(t *testing.T, ports [][]UtilPoint, peaks []wire.Sample, window simclock.Duration, th float64) bool {
	t.Helper()
	ref, refErr := refBufferVsHotPorts(ports, peaks, window, th)
	ad, adErr := BufferVsHotPorts(ports, peaks, window, th)
	var got []BufferWindow
	acc, accErr := NewBufferWindowAcc(window, th)
	if accErr == nil {
		for pi, s := range ports {
			for _, p := range s {
				acc.ObserveUtil(pi, p)
			}
		}
		for _, s := range peaks {
			acc.ObservePeak(s)
		}
		got = acc.Windows()
	}
	if !sameText(refErr, adErr, accErr) {
		t.Errorf("errors diverge: reference %q, adapter %q, accumulator %q", errText(refErr), errText(adErr), errText(accErr))
		return false
	}
	if !reflect.DeepEqual(ref, ad) || !reflect.DeepEqual(ref, got) {
		t.Errorf("windows diverge:\nreference:   %v\nadapter:     %v\naccumulator: %v", ref, ad, got)
		return false
	}
	return true
}

func TestBufferWindowAccMatchesBufferVsHotPorts(t *testing.T) {
	const window = simclock.Millisecond
	ports := [][]UtilPoint{
		randUtilSeries(31, 300, 100),
		randUtilSeries(32, 300, 100),
		randUtilSeries(33, 300, 100),
	}
	peaksOf := func(seed uint64, n int) []wire.Sample {
		src := rng.New(seed)
		var peaks []wire.Sample
		for i := 0; i < n; i++ {
			peaks = append(peaks, wire.Sample{
				Time:  simclock.Epoch.Add(simclock.Micros(int64(i) * 250)),
				Kind:  asic.KindBufferPeak,
				Value: uint64(src.Intn(1 << 20)),
			})
		}
		return peaks
	}
	checkBufferWindows(t, ports, peaksOf(34, 120), window, 0)
	checkBufferWindows(t, ports, peaksOf(34, 120), 0, 0) // non-positive window
	t.Run("quick", func(t *testing.T) {
		prop := func(a, b, c utilSeries, seed uint64, nPeaks uint8, windowUs uint16, lowThreshold bool) bool {
			th := 0.0
			if lowThreshold {
				th = 0.05
			}
			return checkBufferWindows(t, [][]UtilPoint{a, b, c}, peaksOf(seed, int(nPeaks)),
				simclock.Micros(int64(windowUs)-5), th)
		}
		if err := quick.Check(prop, quickCfg(200)); err != nil {
			t.Error(err)
		}
	})
}

// checkGapAware compares GapAwareUtilization, a GapAwareState and the
// reference. The adapter and the accumulator are one engine and must
// agree on everything. Against the reference, every successful
// reconstruction is byte-identical and failure is always agreed; the
// error text is compared unless the input is multiply damaged, where the
// reference (dedup the whole series, then scan) lets a late duplicate
// conflict outrank an early regression and the engine reports the first
// damage it meets.
func checkGapAware(t *testing.T, samples []wire.Sample, speed uint64, multiplyDamaged bool) bool {
	t.Helper()
	refPts, refSt, refErr := refGapAwareUtilization(samples, speed)
	adPts, adSt, adErr := GapAwareUtilization(samples, speed)

	g := NewGapAwareState(speed)
	for _, s := range samples {
		if g.Feed(s) != nil {
			break
		}
	}
	accPts, accSt, accErr := g.Finish()

	if !sameText(adErr, accErr) || !reflect.DeepEqual(adPts, accPts) || adSt != accSt {
		t.Errorf("adapter and accumulator diverge: (%v, %+v, %v) vs (%v, %+v, %v)", adPts, adSt, adErr, accPts, accSt, accErr)
		return false
	}
	if (refErr == nil) != (adErr == nil) {
		t.Errorf("reference err %v, engine err %v", refErr, adErr)
		return false
	}
	if refErr != nil {
		if !multiplyDamaged && !sameText(refErr, adErr) {
			t.Errorf("reference err %q, engine err %q", refErr, adErr)
			return false
		}
		return true
	}
	if !reflect.DeepEqual(refPts, adPts) {
		t.Errorf("points diverge:\nreference: %v\nengine:    %v", refPts, adPts)
		return false
	}
	if refSt != adSt {
		t.Errorf("stats diverge: reference %+v, engine %+v", refSt, adSt)
		return false
	}
	return true
}

func TestGapAwareStateMatchesBatch(t *testing.T) {
	clean := rampSamples(25, []float64{0.5, 1.0, 0.25, 0.0, 0.75})

	dup := append([]wire.Sample(nil), clean...)
	dup = append(dup[:3], append([]wire.Sample{dup[2]}, dup[3:]...)...)

	conflict := append([]wire.Sample(nil), dup...)
	conflict[3].Value++

	missed := append([]wire.Sample(nil), clean...)
	missed[2].Missed = 2
	missed[4].Missed = 1

	// A catch-up burst: the counter jumps by far more than the final 1µs
	// span can carry, forcing the merge cascade in both implementations.
	catchup := rampSamples(25, []float64{0.5, 0.5, 0.5})
	catchup = append(catchup, wire.Sample{
		Time: catchup[3].Time.Add(simclock.Microsecond),
		Kind: asic.KindBytes, Dir: asic.TX,
		Value: catchup[3].Value + uint64(float64(gbps10)/8*100e-6),
	})

	regressT := append([]wire.Sample(nil), clean...)
	regressT[3].Time = regressT[2].Time - 1

	regressV := append([]wire.Sample(nil), clean...)
	regressV[3].Value = regressV[2].Value - 1

	// Multiply damaged: an early value regression and a late conflicting
	// duplicate. The two sides name different damage; both fail.
	both := append([]wire.Sample(nil), conflict...)
	both[2].Value = both[1].Value - 1

	cases := []struct {
		name     string
		samples  []wire.Sample
		speed    uint64
		multiple bool
	}{
		{"clean", clean, gbps10, false},
		{"empty", nil, gbps10, false},
		{"single", clean[:1], gbps10, false},
		{"zero-speed", clean, 0, false},
		{"agreeing-duplicate", dup, gbps10, false},
		{"conflicting-duplicate", conflict, gbps10, false},
		{"missed-spans", missed, gbps10, false},
		{"catchup-merge", catchup, gbps10, false},
		{"regressing-time", regressT, gbps10, false},
		{"regressing-value", regressV, gbps10, false},
		{"regression-then-conflict", both, gbps10, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkGapAware(t, tc.samples, tc.speed, tc.multiple) })
	}
	t.Run("quick", func(t *testing.T) {
		prop := func(d damagedBytes) bool { return checkGapAware(t, d.Samples, d.Speed, d.Fatal > 1) }
		if err := quick.Check(prop, quickCfg(1000)); err != nil {
			t.Error(err)
		}
	})
}
