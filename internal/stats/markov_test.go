package stats

import (
	"math"
	"testing"
)

// fitMarkov fits the model to one hot/not-hot sequence: a MarkovAcc fed
// in order.
func fitMarkov(seq []bool) MarkovModel {
	var a MarkovAcc
	for _, hot := range seq {
		a.Observe(hot)
	}
	return a.Model()
}

func TestFitMarkovCountsAndMLE(t *testing.T) {
	// Sequence: 0 0 1 1 1 0 0 0 1 0
	// Transitions: 00,01,11,11,10,00,00,01,10 ->
	// counts: 00:3 01:2 10:2 11:2
	seq := []bool{false, false, true, true, true, false, false, false, true, false}
	m := fitMarkov(seq)
	if m.N != 9 {
		t.Fatalf("N = %d", m.N)
	}
	if m.Counts[0][0] != 3 || m.Counts[0][1] != 2 || m.Counts[1][0] != 2 || m.Counts[1][1] != 2 {
		t.Fatalf("counts = %v", m.Counts)
	}
	if !almost(m.P[0][1], 0.4, 1e-12) || !almost(m.P[1][1], 0.5, 1e-12) {
		t.Errorf("P = %v", m.P)
	}
	if r := m.LikelihoodRatio(); !almost(r, 0.5/0.4, 1e-12) {
		t.Errorf("r = %v", r)
	}
}

func TestMarkovRowsSumToOne(t *testing.T) {
	seq := make([]bool, 0, 1000)
	state := false
	for i := 0; i < 1000; i++ {
		if i%7 == 0 {
			state = !state
		}
		seq = append(seq, state)
	}
	m := fitMarkov(seq)
	for a := 0; a < 2; a++ {
		sum := m.P[a][0] + m.P[a][1]
		if !almost(sum, 1, 1e-12) {
			t.Errorf("row %d sums to %v", a, sum)
		}
	}
}

func TestMarkovDegenerate(t *testing.T) {
	// Fewer than two samples: all NaN.
	m := fitMarkov([]bool{true})
	if !math.IsNaN(m.P[0][0]) || !math.IsNaN(m.LikelihoodRatio()) {
		t.Error("single-sample fit should be NaN")
	}
	// Never hot: hot row unseen -> NaN probabilities there.
	m = fitMarkov([]bool{false, false, false})
	if !math.IsNaN(m.P[1][1]) {
		t.Errorf("unseen-state row = %v", m.P[1])
	}
	if !math.IsNaN(m.LikelihoodRatio()) {
		t.Errorf("r on never-hot = %v", m.LikelihoodRatio())
	}
	// Always hot after a cold start, p01=1; persists p11=1 -> r=1.
	m = fitMarkov([]bool{false, true, true, true})
	if r := m.LikelihoodRatio(); !almost(r, 1, 1e-12) {
		t.Errorf("r = %v", r)
	}
}

func TestMarkovInfiniteRatio(t *testing.T) {
	// Bursts persist but never start from cold within the window:
	// sequence starts hot and has no 0->1 transition.
	m := fitMarkov([]bool{true, true, true, false, false})
	if r := m.LikelihoodRatio(); !math.IsInf(r, 1) {
		t.Errorf("r = %v, want +Inf", r)
	}
}

func TestStationaryHotFraction(t *testing.T) {
	// Alternating sequence: p01 = 1, p10 = 1 -> stationary 0.5.
	seq := []bool{false, true, false, true, false, true}
	m := fitMarkov(seq)
	if f := m.StationaryHotFraction(); !almost(f, 0.5, 1e-12) {
		t.Errorf("stationary = %v", f)
	}
}

func TestMergeMarkov(t *testing.T) {
	a := fitMarkov([]bool{false, true, true, false})
	b := fitMarkov([]bool{false, false, true, true})
	m := MergeMarkov(a, b)
	if m.N != a.N+b.N {
		t.Errorf("N = %d", m.N)
	}
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			if m.Counts[x][y] != a.Counts[x][y]+b.Counts[x][y] {
				t.Errorf("counts[%d][%d] = %d", x, y, m.Counts[x][y])
			}
		}
	}
	// Merging does NOT create a seam transition: sequence a ends hot=false
	// and b starts false, but counts must not include an extra 0->0.
	if m.Counts[0][0] != a.Counts[0][0]+b.Counts[0][0] {
		t.Error("seam transition fabricated")
	}
	// Rows renormalize.
	for x := 0; x < 2; x++ {
		if sum := m.P[x][0] + m.P[x][1]; !almost(sum, 1, 1e-12) {
			t.Errorf("row %d sums to %v", x, sum)
		}
	}
	// Merging nothing gives a NaN model.
	empty := MergeMarkov()
	if !math.IsNaN(empty.P[0][0]) {
		t.Error("empty merge should be NaN")
	}
}

func TestMarkovCorrelatedBurstsHaveHighRatio(t *testing.T) {
	// Synthesize a bursty sequence the way the paper describes: long cold
	// stretches with occasional multi-interval bursts. The likelihood
	// ratio must be much greater than 1.
	var seq []bool
	for i := 0; i < 200; i++ {
		for j := 0; j < 97; j++ {
			seq = append(seq, false)
		}
		for j := 0; j < 3; j++ {
			seq = append(seq, true)
		}
	}
	m := fitMarkov(seq)
	if r := m.LikelihoodRatio(); r < 10 {
		t.Errorf("bursty sequence likelihood ratio = %v, want >> 1", r)
	}
}
