package stats

import "testing"

// The streaming accumulators sit on the per-sample figure path, so each
// must allocate nothing in steady state. testing.AllocsPerRun divides
// the allocation count by the run count, rounding down: over allocRuns
// runs the amortized growth of an appended slice reads 0, while one
// allocation on any branch a run takes reads at least 1.
const allocRuns = 10_000

func TestECDFAccAddAllocatesNothing(t *testing.T) {
	var a ECDFAcc
	v := 0.0
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		v += 0.25
		a.Add(v)
	}); allocs != 0 {
		t.Errorf("ECDFAcc.Add allocates %v times per value, want 0", allocs)
	}
}

// TestMarkovAccObserveAllocatesNothing drives every transition cell in
// each run: hot, hot, cold, cold.
func TestMarkovAccObserveAllocatesNothing(t *testing.T) {
	var a MarkovAcc
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		for i := 0; i < 4; i++ {
			a.Observe(i < 2)
		}
	}); allocs != 0 {
		t.Errorf("MarkovAcc.Observe allocates %v times per cycle, want 0", allocs)
	}
	for s := range a.counts {
		for u := range a.counts[s] {
			if a.counts[s][u] < allocRuns {
				t.Errorf("transition %d->%d driven %d times in %d cycles", s, u, a.counts[s][u], allocRuns)
			}
		}
	}
}

func TestMomentAccAddAllocatesNothing(t *testing.T) {
	var a MomentAcc
	i := 0
	if allocs := testing.AllocsPerRun(allocRuns, func() {
		a.Add(float64(i%7) - 3)
		i++
	}); allocs != 0 {
		t.Errorf("MomentAcc.Add allocates %v times per value, want 0", allocs)
	}
}
