package analysis

// Snapshot→restore→continue equivalence: for each accumulator the
// collector checkpoints (UtilState, BurstSegmenter) and every split
// point k, feeding samples[:k], snapshotting through a JSON round trip
// (how legacy checkpoints travel), restoring, and feeding samples[k:]
// must be bit-identical to the uninterrupted run — outputs, latched
// errors, everything.

import (
	"encoding/json"
	"reflect"
	"testing"

	"mburst/internal/wire"
)

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

func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// utilStreams are the sample sets UtilState is split over: a clean ramp
// plus damaged variants that latch errors mid-stream.
func utilStreams() map[string][]wire.Sample {
	clean := rampSamples(25, []float64{0.5, 1.0, 0.25, 0.0, 0.75, 0.9, 0.1, 0.95, 0.3, 0.8})
	regress := append([]wire.Sample(nil), clean...)
	regress[6].Value = regress[5].Value - 1
	flat := append([]wire.Sample(nil), clean...)
	flat[4].Time = flat[3].Time
	return map[string][]wire.Sample{"clean": clean, "regressing-value": regress, "duplicate-time": flat}
}

func TestUtilStateSnapshotEquivalence(t *testing.T) {
	for name, samples := range utilStreams() {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				points []UtilPoint
				errs   []string
				close  error
			}
			run := func(feed func(*UtilState, int) *UtilState) outcome {
				var o outcome
				u := NewUtilState(gbps10)
				for i := range samples {
					u = feed(u, i)
					p, ok, err := u.Feed(samples[i])
					if err != nil {
						o.errs = append(o.errs, err.Error())
					} else if ok {
						o.points = append(o.points, p)
					}
				}
				o.close = u.Close()
				return o
			}
			cont := run(func(u *UtilState, _ int) *UtilState { return u })
			for k := 0; k <= len(samples); k++ {
				k := k
				got := run(func(u *UtilState, i int) *UtilState {
					if i == k {
						return RestoreUtilState(jsonRT(t, u.Snapshot()))
					}
					return u
				})
				if !reflect.DeepEqual(got.points, cont.points) || !reflect.DeepEqual(got.errs, cont.errs) ||
					!sameErr(got.close, cont.close) {
					t.Fatalf("split %d diverges", k)
				}
			}
		})
	}
}

func TestBurstSegmenterSnapshotEquivalence(t *testing.T) {
	series := randUtilSeries(99, 60, 25)
	cfgs := []SegmenterConfig{
		{},
		{HotAbove: 0.6, ColdBelow: 0.3, ArmAfter: 2, DisarmAfter: 3},
	}
	for _, cfg := range cfgs {
		run := func(split int) ([]Transition, bool) {
			g := NewBurstSegmenter(cfg)
			var out []Transition
			for i, p := range series {
				if i == split {
					g = RestoreBurstSegmenter(jsonRT(t, g.Snapshot()))
				}
				if tr, ok := g.Feed(p); ok {
					out = append(out, tr)
				}
			}
			if split == len(series) {
				g = RestoreBurstSegmenter(jsonRT(t, g.Snapshot()))
			}
			tr, ok := g.Flush()
			if ok {
				out = append(out, tr)
			}
			return out, g.Active()
		}
		want, wantActive := run(-1)
		for k := 0; k <= len(series); k++ {
			got, gotActive := run(k)
			if !reflect.DeepEqual(got, want) || gotActive != wantActive {
				t.Fatalf("cfg %+v split %d diverges", cfg, k)
			}
		}
	}
}
