package collector

import (
	"reflect"
	"strings"
	"testing"

	"mburst/internal/asic"
)

func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{
		Batches: 3, Samples: 30, LastSampleNanos: 500,
		PerRack: []RackCount{{Rack: 0, Samples: 10}, {Rack: 2, Samples: 20}},
	}
	b := Snapshot{
		Batches: 2, Samples: 12, LastSampleNanos: 900,
		PerRack: []RackCount{{Rack: 1, Samples: 7}, {Rack: 2, Samples: 5}},
	}
	got := MergeSnapshots(a, b)
	want := Snapshot{
		Batches: 5, Samples: 42, LastSampleNanos: 900,
		PerRack: []RackCount{{Rack: 0, Samples: 10}, {Rack: 1, Samples: 7}, {Rack: 2, Samples: 25}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeSnapshots = %+v, want %+v", got, want)
	}
	if got := MergeSnapshots(); !reflect.DeepEqual(got, Snapshot{}) {
		t.Errorf("empty merge = %+v, want zero", got)
	}
}

func TestMergeFiguresStatesDisjointUnion(t *testing.T) {
	mk := func(rack uint32, port uint16, samples uint64) FiguresState {
		return FiguresState{
			Samples: samples,
			Series: []*SeriesState{{
				Rack: rack, Port: port, Dir: asic.TX, Kind: asic.KindBytes,
				Points: int(samples),
			}},
		}
	}
	// Out-of-order inputs must land in canonical (rack, port, dir, kind)
	// order regardless.
	got, err := MergeFiguresStates(mk(3, 1, 5), mk(0, 2, 7), mk(0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != 13 {
		t.Errorf("Samples = %d, want 13", got.Samples)
	}
	order := make([][2]uint32, 0, len(got.Series))
	for _, s := range got.Series {
		order = append(order, [2]uint32{s.Rack, uint32(s.Port)})
	}
	want := [][2]uint32{{0, 1}, {0, 2}, {3, 1}}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("series order = %v, want %v", order, want)
	}
}

func TestMergeFiguresStatesDuplicateSeries(t *testing.T) {
	dup := FiguresState{Series: []*SeriesState{{Rack: 1, Port: 2, Dir: asic.TX, Kind: asic.KindBytes}}}
	_, err := MergeFiguresStates(dup, dup)
	if err == nil {
		t.Fatal("merging a duplicated series must fail")
	}
	if !strings.Contains(err.Error(), "placement violation") {
		t.Errorf("error %q does not name the placement violation", err)
	}
}
