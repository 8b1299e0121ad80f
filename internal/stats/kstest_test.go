package stats

import (
	"math"
	"testing"

	"mburst/internal/rng"
)

func TestKSExponentialAcceptsExponential(t *testing.T) {
	r := rng.New(101)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = r.Exp(40)
	}
	res := KSExponential(sample)
	if res.N != 5000 {
		t.Fatalf("N = %d", res.N)
	}
	if res.Rejects(0.01) {
		t.Errorf("true exponential rejected: D=%v p=%v", res.D, res.PValue)
	}
}

func TestKSExponentialRejectsHeavyTail(t *testing.T) {
	// Inter-burst gaps in the paper are a mixture of very short
	// within-episode gaps and very long idle periods — nothing like an
	// exponential. KS must reject with p ~ 0 (§5.2).
	r := rng.New(103)
	sample := make([]float64, 5000)
	for i := range sample {
		if r.Bool(0.7) {
			sample[i] = r.Exp(50) // short gaps ~50µs
		} else {
			sample[i] = 1e5 + 1e5/math.Pow(1-r.Float64(), 1/0.9) // idle periods ~100ms+, Pareto(1e5, 0.9)
		}
	}
	res := KSExponential(sample)
	if !res.Rejects(1e-6) {
		t.Errorf("heavy-tail mixture not rejected: D=%v p=%v", res.D, res.PValue)
	}
	if res.PValue > 1e-6 {
		t.Errorf("p-value = %v, want ~0", res.PValue)
	}
}

func TestKSExponentialRejectsUniform(t *testing.T) {
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = float64(i) / 2000
	}
	res := KSExponential(sample)
	if !res.Rejects(0.001) {
		t.Errorf("uniform not rejected: D=%v p=%v", res.D, res.PValue)
	}
}

func TestKSEdgeCases(t *testing.T) {
	res := KSExponential(nil)
	if !math.IsNaN(res.D) || !math.IsNaN(res.PValue) {
		t.Errorf("empty sample: %+v", res)
	}
	res = KSExponential([]float64{0, 0, 0})
	if res.PValue != 0 {
		t.Errorf("all-zero sample p = %v, want 0", res.PValue)
	}
}

func TestKolmogorovQ(t *testing.T) {
	// Known values of the Kolmogorov distribution tail.
	cases := []struct {
		lambda, want, tol float64
	}{
		{0.5, 0.9639, 1e-3},
		{1.0, 0.2700, 1e-3},
		{1.5, 0.0222, 1e-3},
		{2.0, 0.00067, 1e-4},
	}
	for _, c := range cases {
		if got := kolmogorovQ(c.lambda); math.Abs(got-c.want) > c.tol {
			t.Errorf("Q(%v) = %v, want %v", c.lambda, got, c.want)
		}
	}
	if kolmogorovQ(0) != 1 || kolmogorovQ(-1) != 1 {
		t.Error("Q of non-positive lambda should be 1")
	}
}
