package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// jsonRT round-trips a snapshot through JSON — exactly how legacy
// checkpoints travel to disk — so the equivalence below proves serialization loses
// nothing (encoding/json renders float64 exactly).
func jsonRT[S any](t *testing.T, s S) S {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var out S
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return out
}

func snapValues(n int) []float64 {
	out := make([]float64, n)
	v := 1.0
	for i := range out {
		v = v*1.37 + float64(i%5) - 2.2
		out[i] = v
	}
	return out
}

func f64eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestECDFAccSnapshotEquivalence(t *testing.T) {
	values := snapValues(31)
	for k := 0; k <= len(values); k++ {
		var cont, a ECDFAcc
		for _, v := range values {
			cont.Add(v)
		}
		for _, v := range values[:k] {
			a.Add(v)
		}
		var b ECDFAcc
		b.Add(999) // restore must discard pre-existing state
		// The slab is shared with a next accumulator, whose first value
		// must survive every Add.
		slab := make([]float64, k+1)
		slab[k] = -1
		if rest := b.Restore(jsonRT(t, a.Snapshot()), slab); len(rest) != 1 {
			t.Fatalf("split %d: Restore left %d of the slab, want 1", k, len(rest))
		}
		for _, v := range values[k:] {
			b.Add(v)
		}
		if slab[k] != -1 {
			t.Fatalf("split %d: Add wrote past the restored values into the slab", k)
		}
		if !reflect.DeepEqual(b.Values(), cont.Values()) {
			t.Fatalf("split %d: values diverge", k)
		}
		if !reflect.DeepEqual(b.ECDF(), cont.ECDF()) {
			t.Fatalf("split %d: ECDF diverges", k)
		}
	}
}

func markovSeq(n int) []bool {
	out := make([]bool, n)
	x := uint32(12345)
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = x&0x30000 != 0
	}
	return out
}

func TestMarkovAccSnapshotEquivalence(t *testing.T) {
	seq := markovSeq(40)
	for k := 0; k <= len(seq); k++ {
		var cont, a MarkovAcc
		feed := func(m *MarkovAcc, from, to int) {
			for i := from; i < to; i++ {
				if i%13 == 12 {
					m.EndSequence()
				}
				m.Observe(seq[i])
			}
		}
		feed(&cont, 0, len(seq))
		feed(&a, 0, k)
		var b MarkovAcc
		b.Restore(jsonRT(t, a.Snapshot()))
		feed(&b, k, len(seq))
		if !markovModelsEqualNaN(b, cont) {
			t.Fatalf("split %d: models diverge", k)
		}
		if b.N() != cont.N() {
			t.Fatalf("split %d: N %d vs %d", k, b.N(), cont.N())
		}
	}
}

// markovModelsEqualNaN compares models bit-exactly, treating NaN equal
// to NaN (reflect.DeepEqual would not).
func markovModelsEqualNaN(a, b MarkovAcc) bool {
	ma, mb := a.Model(), b.Model()
	if ma.Counts != mb.Counts || ma.N != mb.N {
		return false
	}
	for s := 0; s < 2; s++ {
		for t := 0; t < 2; t++ {
			if !f64eq(ma.P[s][t], mb.P[s][t]) {
				return false
			}
		}
	}
	return true
}

func TestMarkovAccMerge(t *testing.T) {
	seq := markovSeq(30)
	var whole, left, right MarkovAcc
	for i, h := range seq {
		whole.Observe(h)
		if i == 14 {
			whole.EndSequence() // the seam both halves see
		}
		if i < 15 {
			left.Observe(h)
		} else {
			right.Observe(h)
		}
	}
	left.Merge(&right)
	if !markovModelsEqualNaN(left, whole) {
		t.Fatal("merged counts diverge from seam-split whole")
	}
}

func TestMomentAccSnapshotEquivalence(t *testing.T) {
	values := snapValues(25)
	for k := 0; k <= len(values); k++ {
		var cont, a MomentAcc
		for _, v := range values {
			cont.Add(v)
		}
		for _, v := range values[:k] {
			a.Add(v)
		}
		var b MomentAcc
		b.Restore(jsonRT(t, a.Snapshot()))
		for _, v := range values[k:] {
			b.Add(v)
		}
		if b.N() != cont.N() || !f64eq(b.Sum(), cont.Sum()) ||
			!f64eq(b.Mean(), cont.Mean()) || !f64eq(b.Min(), cont.Min()) || !f64eq(b.Max(), cont.Max()) {
			t.Fatalf("split %d: moments diverge", k)
		}
	}
	// Empty accumulator round-trips (NaN finalizers never hit the JSON).
	var empty MomentAcc
	var back MomentAcc
	back.Restore(jsonRT(t, empty.Snapshot()))
	if !math.IsNaN(back.Mean()) || back.N() != 0 {
		t.Error("empty accumulator did not survive the round trip")
	}
}
