package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mburst/internal/rng"
)

func markovEqual(a, b MarkovModel) bool {
	if a.Counts != b.Counts || a.N != b.N {
		return false
	}
	for s := 0; s < 2; s++ {
		for t := 0; t < 2; t++ {
			x, y := a.P[s][t], b.P[s][t]
			if math.IsNaN(x) != math.IsNaN(y) {
				return false
			}
			if !math.IsNaN(x) && x != y {
				return false
			}
		}
	}
	return true
}

func TestECDFAccMatchesNewECDF(t *testing.T) {
	src := rng.New(41)
	var vals []float64
	var acc ECDFAcc
	for i := 0; i < 500; i++ {
		v := src.Float64() * 100
		vals = append(vals, v)
		acc.Add(v)
	}
	if !reflect.DeepEqual(acc.Values(), vals) {
		t.Fatal("Values() does not preserve insertion order")
	}
	want, got := NewECDF(vals), acc.ECDF()
	if want.N() != got.N() {
		t.Fatalf("N: batch %d, acc %d", want.N(), got.N())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if w, g := want.Quantile(q), got.Quantile(q); w != g {
			t.Errorf("Quantile(%v): batch %v, acc %v", q, w, g)
		}
	}
	var empty ECDFAcc
	if empty.ECDF().N() != NewECDF(nil).N() {
		t.Error("empty accumulator ECDF differs from NewECDF(nil)")
	}
}

// checkMarkov compares, on one set of sequences, the accumulator (one
// per sequence, and one over all of them with seams marked by
// EndSequence) and MergeMarkov over the per-sequence fits with the
// independent references in reference_test.go.
func checkMarkov(t *testing.T, seqs [][]bool) bool {
	t.Helper()
	var acc MarkovAcc
	var refs, fits []MarkovModel
	for _, seq := range seqs {
		for _, hot := range seq {
			acc.Observe(hot)
		}
		acc.EndSequence()
		refs = append(refs, refFitMarkov(seq))
		fits = append(fits, fitMarkov(seq))
		if !markovEqual(refs[len(refs)-1], fits[len(fits)-1]) {
			t.Errorf("fit of %v = %+v, reference %+v", seq, fits[len(fits)-1], refs[len(refs)-1])
			return false
		}
	}
	want := refMergeMarkov(refs...)
	if got := MergeMarkov(fits...); !markovEqual(want, got) {
		t.Errorf("MergeMarkov diverges:\nreference: %+v\nadapter:   %+v", want, got)
		return false
	}
	if got := acc.Model(); !markovEqual(want, got) || want.N != acc.N() {
		t.Errorf("accumulator diverges (N=%d):\nreference:   %+v\naccumulator: %+v", acc.N(), want, got)
		return false
	}
	return true
}

func TestMarkovAccMatchesFitMerge(t *testing.T) {
	src := rng.New(42)
	seqs := make([][]bool, 6)
	for i := range seqs {
		n := src.Intn(40) // includes empty and single-element sequences
		if i == 1 {
			n = 0
		}
		if i == 2 {
			n = 1
		}
		seqs[i] = make([]bool, n)
		for j := range seqs[i] {
			seqs[i][j] = src.Bool(0.4)
		}
	}
	checkMarkov(t, seqs)
	checkMarkov(t, nil)
	checkMarkov(t, [][]bool{nil})

	// The generator seed is fixed so a failing input reproduces.
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(seqs [][]bool) bool { return checkMarkov(t, seqs) }, cfg); err != nil {
		t.Error(err)
	}
}

func TestMomentAccMatchesLoop(t *testing.T) {
	src := rng.New(43)
	var acc MomentAcc
	var sum float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	const n = 257
	for i := 0; i < n; i++ {
		v := src.Normal() * 10
		sum += v
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
		acc.Add(v)
	}
	if acc.N() != n {
		t.Errorf("N = %d, want %d", acc.N(), n)
	}
	if acc.Sum() != sum {
		t.Errorf("Sum = %v, want %v (must match left-to-right batch sum exactly)", acc.Sum(), sum)
	}
	if acc.Mean() != sum/float64(n) {
		t.Errorf("Mean = %v, want %v", acc.Mean(), sum/float64(n))
	}
	if acc.Min() != minV || acc.Max() != maxV {
		t.Errorf("extrema = [%v, %v], want [%v, %v]", acc.Min(), acc.Max(), minV, maxV)
	}

	var empty MomentAcc
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Min()) || !math.IsNaN(empty.Max()) {
		t.Error("empty accumulator must report NaN mean and extrema")
	}
	if empty.N() != 0 || empty.Sum() != 0 {
		t.Error("empty accumulator must report zero count and sum")
	}
}
