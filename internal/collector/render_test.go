package collector

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"
	"testing/quick"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/wire"
)

// genCut draws a figures cut as taps, merges and checkpoints hold them:
// up to a dozen series over four racks and six ports, each listed once,
// in canonical order or, now and then, not. A series may be latched
// (its converter holds an error), never fed (zero state, no histogram),
// hot on an uplink or a downlink, with burst and gap ECDFs that are
// empty, hold one value or several (ties included), and any Markov seam.
func genCut(rng *rand.Rand) FiguresState {
	st := FiguresState{Samples: uint64(rng.Intn(1 << 20))}
	seen := map[seriesID]bool{}
	values := func() []float64 {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []float64{float64(rng.Intn(400))}
		}
		vs := make([]float64, 2+rng.Intn(9))
		for i := range vs {
			vs[i] = float64(rng.Intn(50)) * 12.5
		}
		return vs
	}
	for n := rng.Intn(13); n > 0; n-- {
		s := &SeriesState{Rack: uint32(rng.Intn(4)), Port: uint16(rng.Intn(6)),
			Dir: asic.Direction(rng.Intn(2)), Kind: asic.KindBytes}
		if seen[s.id()] {
			continue
		}
		seen[s.id()] = true
		st.Series = append(st.Series, s)
		s.Util = analysis.UtilSnap{SpeedBps: figSpeed}
		s.Seg = analysis.SegmenterSnap{HotAbove: analysis.DefaultHotThreshold}
		if rng.Intn(5) == 0 {
			continue // never fed: zero accumulators, no histogram
		}
		s.Util.N = 1 + rng.Intn(100)
		s.Util.Prev = wire.Sample{Time: simclock.Epoch.Add(simclock.Micros(int64(s.Util.N) * 25)), Port: s.Port, Dir: s.Dir, Value: uint64(rng.Intn(1 << 30))}
		if rng.Intn(6) == 0 {
			s.Util.Err = "analysis: counter went backwards" // latched
		}
		s.Seg.Active = rng.Intn(2) == 0
		s.Durations.Values = values()
		s.Gaps.Values = values()
		s.UtilHist = make([]uint64, utilBins)
		for b := range s.UtilHist {
			if rng.Intn(3) == 0 {
				s.UtilHist[b] = uint64(rng.Intn(40))
			}
		}
		s.Points = rng.Intn(200)
		s.Hot = rng.Intn(s.Points + 1)
		for i := range s.Markov.Counts {
			for j := range s.Markov.Counts[i] {
				if rng.Intn(4) != 0 {
					s.Markov.Counts[i][j] = int64(rng.Intn(60))
					s.Markov.N += s.Markov.Counts[i][j]
				}
			}
		}
		s.Markov.Prev, s.Markov.Primed = rng.Intn(2) == 0, rng.Intn(2) == 0
		if rng.Intn(4) != 0 {
			var m stats.MomentAcc
			for k := 1 + rng.Intn(8); k > 0; k-- {
				m.Add(rng.Float64() * 1.2)
			}
			s.Moments = m.Snapshot()
		}
	}
	if rng.Intn(4) != 0 {
		st.Series = canonicalOrder(st.Series)
	}
	return st
}

// genFiguresConfig draws the render's configuration: the default or a
// set threshold, and ports 4 and 5 as uplinks or no port classes at all.
func genFiguresConfig(rng *rand.Rand) LiveFiguresConfig {
	cfg := LiveFiguresConfig{SpeedOf: func(uint32, uint16) uint64 { return figSpeed }}
	if rng.Intn(2) == 0 {
		cfg.Threshold = 0.3
	}
	if rng.Intn(4) != 0 {
		cfg.IsUplink = func(_ uint32, port uint16) bool { return port >= 4 }
	}
	return cfg
}

// TestRenderMatchesReference is the renderer's law: over generated cuts,
// RenderFigures is what refRender — restore the cut into a fresh tap,
// then render the tap — returns, and so is the Snapshot of a tap
// restored from the cut.
func TestRenderMatchesReference(t *testing.T) {
	law := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg, st := genFiguresConfig(rng), genCut(rng)
		want, err := refRender(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RenderFigures(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		tap, err := NewLiveFigures(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tap.RestoreState(st)
		for what, snap := range map[string]FiguresSnapshot{"RenderFigures": got, "Snapshot": tap.Snapshot()} {
			if !reflect.DeepEqual(snap, want) {
				t.Errorf("seed %d: %s diverges from refRender\n got %+v\nwant %+v", seed, what, snap, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if _, err := RenderFigures(LiveFiguresConfig{}, FiguresState{}); fmt.Sprint(err) != "collector: LiveFigures needs a SpeedOf function" {
		t.Errorf("RenderFigures without SpeedOf: err = %v, want NewLiveFigures' error", err)
	}
}

// TestRenderAllocatesPerPart: rendering 5,000 series makes four
// allocations — the series list, the Markov fits, one slab for every
// histogram and the scratch buffer each series' quantiles are read in —
// not three per series. The collector is off while it counts.
func TestRenderAllocatesPerPart(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st := fleetCut(t, 5000)
	cfg := LiveFiguresConfig{SpeedOf: func(uint32, uint16) uint64 { return figSpeed }}
	var snap FiguresSnapshot
	if allocs := testing.AllocsPerRun(5, func() { snap, _ = RenderFigures(cfg, *st.Figures) }); allocs > 4 {
		t.Errorf("rendering %d series made %v allocations, want at most 4", len(st.Figures.Series), allocs)
	}
	want, err := refRender(cfg, *st.Figures)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, want) {
		t.Error("the render of 5,000 series diverges from refRender")
	}
}
