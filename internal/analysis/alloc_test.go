package analysis

import (
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// The streaming accumulators run per sample (or per span) on the live
// figure path, so each must allocate nothing in steady state. Each test
// drives the branches that matter, not only the straight line, and a
// run covers one whole cycle of its input pattern. testing.AllocsPerRun
// divides the allocation count by the run count, rounding down: over
// allocRuns runs the amortized growth of an appended slice reads 0,
// while one allocation on any branch of the cycle reads at least 1.
const allocRuns = 10_000

// tenGig is a 10 Gb/s port: 31,250 bytes per 25 µs span at line rate.
const tenGig = 10_000_000_000

// byteStream returns a generator of cumulative byte-counter samples at
// 25 µs spacing, advancing by delta(i) bytes at the i-th sample.
func byteStream(delta func(i int) uint64) func() wire.Sample {
	s := wire.Sample{Time: simclock.Epoch, Port: 1, Dir: asic.TX, Kind: asic.KindBytes}
	i := 0
	return func() wire.Sample {
		s.Time = s.Time.Add(simclock.Micros(25))
		s.Value += delta(i)
		i++
		return s
	}
}

func TestUtilStateFeedAllocatesNothing(t *testing.T) {
	u := NewUtilState(tenGig)
	next := byteStream(func(i int) uint64 { return uint64(i%40) * 1000 })
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		if _, _, err := u.Feed(next()); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("UtilState.Feed allocates %v times per sample, want 0", allocs)
	}
}

// TestGapAwareStateFeedAllocatesNothing feeds a damaged stream in cycles
// of nine samples: a stale read (the counter did not move, Missed set),
// a read that catches up past line rate so the catch-up merge runs, a
// duplicate of it, and six clean reads.
func TestGapAwareStateFeedAllocatesNothing(t *testing.T) {
	g := NewGapAwareState(tenGig)
	next := byteStream(func(i int) uint64 {
		switch i % 8 {
		case 1:
			return 0
		case 2:
			return 50_000
		}
		return 10_000
	})
	if err := g.Feed(next()); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		var prev wire.Sample
		for i := 0; i < 9; i++ {
			s := prev
			if i != 2 {
				s = next()
				if i == 0 {
					s.Missed = 1
				}
			}
			if err := g.Feed(s); err != nil {
				t.Fatal(err)
			}
			prev = s
		}
	}); allocs != 0 {
		t.Errorf("GapAwareState.Feed allocates %v times per cycle, want 0", allocs)
	}
	if runs := allocRuns + 1; g.st.Merged < runs || g.st.Duplicates < runs || g.st.MissedSpans < runs {
		t.Errorf("a cycle did not drive every branch: %+v", g.st)
	}
}

// TestBurstSegmenterFeedAllocatesNothing arms, extends and disarms a
// burst every cycle, through the debounce and the hysteresis dead zone.
func TestBurstSegmenterFeedAllocatesNothing(t *testing.T) {
	g := NewBurstSegmenter(SegmenterConfig{HotAbove: 0.5, ColdBelow: 0.3, ArmAfter: 2, DisarmAfter: 2})
	levels := []float64{0.9, 0.9, 0.9, 0.4, 0.1, 0.9, 0.1, 0.1, 0.1, 0.4}
	at := simclock.Epoch
	var opens, closes int
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		for _, u := range levels {
			end := at.Add(simclock.Micros(25))
			if tr, ok := g.Feed(UtilPoint{Start: at, End: end, Util: u}); ok {
				if tr.Kind == SegOpen {
					opens++
				} else {
					closes++
				}
			}
			at = end
		}
	}); allocs != 0 {
		t.Errorf("BurstSegmenter.Feed allocates %v times per cycle, want 0", allocs)
	}
	if runs := allocRuns + 1; opens != runs || closes != runs {
		t.Errorf("segmenter opened %d and closed %d bursts in %d cycles, want one each per cycle", opens, closes, runs)
	}
}

// TestRebinAccAddAllocatesNothing feeds 30 µs spans into 100 µs bins, so
// spans straddle bin edges and the bin slice keeps growing.
func TestRebinAccAddAllocatesNothing(t *testing.T) {
	r := NewRebinAcc(simclock.Micros(100))
	at := simclock.Epoch
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		end := at.Add(simclock.Micros(30))
		r.Add(UtilPoint{Start: at, End: end, Util: 0.5})
		at = end
	}); allocs != 0 {
		t.Errorf("RebinAcc.Add allocates %v times per span, want 0", allocs)
	}
}

func TestDropBinAccAddAllocatesNothing(t *testing.T) {
	d, err := NewDropBinAcc(simclock.Micros(100))
	if err != nil {
		t.Fatal(err)
	}
	next := byteStream(func(i int) uint64 { return uint64(i % 3) })
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := d.Add(next()); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DropBinAcc.Add allocates %v times per sample, want 0", allocs)
	}
}

func TestSeriesEndpointsAddAllocatesNothing(t *testing.T) {
	var e SeriesEndpoints
	next := byteStream(func(int) uint64 { return 1500 })
	if allocs := testing.AllocsPerRun(allocRuns, func() { e.Add(next()) }); allocs != 0 {
		t.Errorf("SeriesEndpoints.Add allocates %v times per sample, want 0", allocs)
	}
}
