package shard

import (
	"encoding/json"
	"reflect"
	"testing"
)

// owner is the name of the shard that owns rack.
func owner(p Placement, rack uint32) string { return p.Name(p.ShardOf(rack)) }

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Placement
		ok   bool
	}{
		{"empty", Placement{Version: 1}, false},
		{"zero version", Placement{Shards: []string{"a"}}, false},
		{"blank name", Placement{Version: 1, Shards: []string{"a", ""}}, false},
		{"duplicate", Placement{Version: 1, Shards: []string{"a", "a"}}, false},
		{"ok", Placement{Version: 1, Shards: []string{"a", "b"}}, true},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if _, err := Uniform(0, 1); err == nil {
		t.Error("Uniform(0) should fail")
	}
	if _, err := New([]string{"a", "a"}, 1); err == nil {
		t.Error("New with duplicates should fail")
	}
}

func TestShardOfDeterministic(t *testing.T) {
	p, err := Uniform(7, 42)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Uniform(7, 42)
	if err != nil {
		t.Fatal(err)
	}
	for rack := uint32(0); rack < 2000; rack++ {
		a, b := p.ShardOf(rack), q.ShardOf(rack)
		if a != b {
			t.Fatalf("rack %d: placement not deterministic (%d vs %d)", rack, a, b)
		}
		if a < 0 || a >= p.NumShards() {
			t.Fatalf("rack %d: shard %d out of range", rack, a)
		}
	}
}

func TestShardOfSeedSensitivity(t *testing.T) {
	a, _ := Uniform(8, 1)
	b, _ := Uniform(8, 2)
	moved := 0
	for rack := uint32(0); rack < 1000; rack++ {
		if a.ShardOf(rack) != b.ShardOf(rack) {
			moved++
		}
	}
	if moved == 0 {
		t.Error("changing the seed moved no racks; scores ignore the seed")
	}
}

func TestShardOfOrderIndependent(t *testing.T) {
	a, _ := New([]string{"east", "west", "north"}, 9)
	b, _ := New([]string{"north", "east", "west"}, 9)
	for rack := uint32(0); rack < 1000; rack++ {
		if owner(a, rack) != owner(b, rack) {
			t.Fatalf("rack %d: owner depends on shard list order (%q vs %q)",
				rack, owner(a, rack), owner(b, rack))
		}
	}
}

func TestBalance(t *testing.T) {
	const racks, shards = 10000, 8
	p, err := Uniform(shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for rack := uint32(0); rack < racks; rack++ {
		counts[p.ShardOf(rack)]++
	}
	// Rendezvous hashing over a decent hash should stay within a loose
	// band of the mean; the bound guards against a degenerate fold, not
	// statistical noise.
	mean := racks / shards
	for i, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("shard %d owns %d racks; mean is %d — placement badly unbalanced", i, c, mean)
		}
	}
}

// TestMinimalDisruption is the property that justifies rendezvous over
// modulo hashing: membership changes move only the racks they must.
func TestMinimalDisruption(t *testing.T) {
	const racks = 5000
	p, err := Uniform(5, 11)
	if err != nil {
		t.Fatal(err)
	}

	grown, err := New(append(p.Shards[:len(p.Shards):len(p.Shards)], "shard_new"), p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	movedToNew := 0
	for rack := uint32(0); rack < racks; rack++ {
		before, after := owner(p, rack), owner(grown, rack)
		if before == after {
			continue
		}
		if after != "shard_new" {
			t.Fatalf("rack %d moved %q→%q on shard add; only moves onto the new shard are allowed",
				rack, before, after)
		}
		movedToNew++
	}
	if movedToNew == 0 {
		t.Error("adding a shard attracted no racks")
	}
	if movedToNew > racks/3 {
		t.Errorf("adding one shard to five moved %d/%d racks; expected roughly 1/6", movedToNew, racks)
	}

	victim := p.Name(2)
	shrunk, err := New([]string{p.Name(0), p.Name(1), p.Name(3), p.Name(4)}, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for rack := uint32(0); rack < racks; rack++ {
		before, after := owner(p, rack), owner(shrunk, rack)
		if before != victim && before != after {
			t.Fatalf("rack %d moved %q→%q on unrelated shard removal", rack, before, after)
		}
		if before == victim && after == victim {
			t.Fatalf("rack %d still owned by removed shard %q", rack, victim)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p, err := New([]string{"a", "b", "c"}, 99)
	if err != nil {
		t.Fatal(err)
	}
	p.Version = 4
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Placement
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed the placement: %+v vs %+v", p, q)
	}
	for rack := uint32(0); rack < 500; rack++ {
		if p.ShardOf(rack) != q.ShardOf(rack) {
			t.Fatalf("rack %d maps differently after JSON round trip", rack)
		}
	}
}

func TestIndex(t *testing.T) {
	p, _ := New([]string{"a", "b"}, 0)
	if got := p.Index("b"); got != 1 {
		t.Errorf("Index(b) = %d, want 1", got)
	}
	if got := p.Index("z"); got != -1 {
		t.Errorf("Index(z) = %d, want -1", got)
	}
}
