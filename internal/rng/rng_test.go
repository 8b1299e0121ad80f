package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("workload")
	c2 := parent.Split("collector")
	if c1.Uint64() == c2.Uint64() {
		t.Error("differently-labeled children produced identical first output")
	}
	// Same label from identically-positioned parents must match.
	p1, p2 := New(7), New(7)
	a := p1.Split("x")
	b := p2.Split("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-label children diverged at step %d", i)
		}
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(25)
	}
	mean := sum / n
	if math.Abs(mean-25) > 0.5 {
		t.Errorf("Exp(25) mean = %v", mean)
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.BoundedPareto(10, 1000, 1.2)
		if v < 10 || v > 1000 {
			t.Fatalf("BoundedPareto out of [10,1000]: %v", v)
		}
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	// The median should sit near the low end: most mass near xm.
	r := New(19)
	const n = 50000
	below := 0
	for i := 0; i < n; i++ {
		if r.BoundedPareto(1, 10000, 1.1) < 10 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.75 {
		t.Errorf("only %.2f of bounded-Pareto mass below 10x the minimum; want heavy head", frac)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(29)
	for _, mean := range []float64{0.5, 4, 30, 200} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

func TestCategorical(t *testing.T) {
	r := New(41)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("categorical ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := New(1)
	for _, w := range [][]float64{nil, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			r.Categorical(w)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(43)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// Property: Bool(p) never fires for p<=0 and always fires for p>=1.
func TestQuickBoolEdges(t *testing.T) {
	r := New(47)
	f := func(x uint16) bool {
		return !r.Bool(0) && !r.Bool(-1) && r.Bool(1) && r.Bool(2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Exp is always non-negative.
func TestQuickPositivity(t *testing.T) {
	r := New(53)
	f := func(mRaw uint16) bool {
		m := float64(mRaw%1000) + 1
		return r.Exp(m) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
