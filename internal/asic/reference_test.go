package asic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refAdd is dirCounters.add as it stood before charges were memoized:
// every increment re-derived from (nbytes, profile) on every charge. It
// touches only the four counter fields, so it runs on a dirCounters whose
// plan and memo state stay zero.
func refAdd(c *dirCounters, nbytes float64, profile TrafficProfile) {
	if nbytes <= 0 {
		return
	}
	c.bytes += uint64(nbytes + 0.5)
	for i, frac := range profile {
		if frac == 0 {
			continue
		}
		pkts := nbytes*frac/representativeSize[i] + c.binRem[i]
		whole := uint64(pkts)
		c.binRem[i] = pkts - float64(whole)
		c.bins[i] += whole
		c.packets += whole
	}
}

// charge is one call of add: nbytes under one of a sequence's profiles.
type charge struct {
	nbytes  float64
	profile int
}

// chargeSeq is a generated sequence of charges against one counter block,
// built from the runs the data path produces and the edges between them.
type chargeSeq struct {
	profiles []TrafficProfile
	charges  []charge
}

func genProfile(r *rand.Rand) TrafficProfile {
	var p TrafficProfile
	var total float64
	for i := range p {
		if r.Intn(3) == 0 {
			continue // zero-fraction bin
		}
		p[i] = r.Float64()
		total += p[i]
	}
	if total == 0 {
		p[r.Intn(NumSizeBins)] = 1
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

func genBytes(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return r.Float64() // sub-byte
	case 1:
		return 0
	case 2:
		return 6250 // a 10G port's line rate × 5 µs
	default:
		return r.Float64() * 50000
	}
}

// Generate implements quick.Generator.
func (chargeSeq) Generate(r *rand.Rand, size int) reflect.Value {
	var s chargeSeq
	for i := 0; i < 2+r.Intn(3); i++ {
		s.profiles = append(s.profiles, genProfile(r))
	}
	for len(s.charges) < 20+size {
		a := charge{genBytes(r), r.Intn(len(s.profiles))}
		b := charge{genBytes(r), r.Intn(len(s.profiles))}
		run := 1 + r.Intn(8)
		switch r.Intn(4) {
		case 0: // the same charge repeated: a steady port
			for i := 0; i < run; i++ {
				s.charges = append(s.charges, a)
			}
		case 1: // two charges alternating: every one misses the memo
			for i := 0; i < run; i++ {
				s.charges = append(s.charges, a, b)
			}
		case 2: // nbytes fixed, profile changing
			for i := 0; i < run; i++ {
				s.charges = append(s.charges, charge{a.nbytes, r.Intn(len(s.profiles))})
			}
		case 3: // profile fixed, nbytes changing: offer, line-rate cap, drain tail
			for i := 0; i < run; i++ {
				s.charges = append(s.charges, charge{genBytes(r), a.profile})
			}
		}
	}
	return reflect.ValueOf(s)
}

// sameCounters compares the observable counter state bit for bit. A
// direction that does not count packets matches the reference in bytes
// and keeps its packet state at zero.
func sameCounters(got, want *dirCounters) bool {
	if got.bytes != want.bytes {
		return false
	}
	if !got.counted {
		return got.packets == 0 && got.bins == [NumSizeBins]uint64{} && got.binRem == [NumSizeBins]float64{}
	}
	if got.packets != want.packets || got.bins != want.bins {
		return false
	}
	for i := range got.binRem {
		if math.Float64bits(got.binRem[i]) != math.Float64bits(want.binRem[i]) {
			return false
		}
	}
	return true
}

// readsPanic reports whether both packet reads of c's direction panic
// when c is a port's TX block.
func readsPanic(c *dirCounters) bool {
	p := Port{name: "p", tx: *c}
	panics := func(read func()) (ok bool) {
		defer func() { ok = recover() != nil }()
		read()
		return false
	}
	return panics(func() { p.Packets(TX) }) && panics(func() { p.SizeBins(TX) })
}

// TestAddMatchesReference: memoized add leaves bytes, packets, bins and
// binRem bit-identical to refAdd after every charge, whether profiles
// arrive by value or through plans. A direction that does not count
// packets matches refAdd in bytes, and its packet reads panic.
func TestAddMatchesReference(t *testing.T) {
	for _, counted := range []bool{true, false} {
		byValue := func(s chargeSeq) bool {
			got := dirCounters{counted: counted}
			var want dirCounters
			for k, ch := range s.charges {
				profile := s.profiles[ch.profile]
				got.useProfile(&profile)
				got.add(ch.nbytes)
				refAdd(&want, ch.nbytes, profile)
				if !sameCounters(&got, &want) {
					t.Logf("by value (counted=%v): diverged at charge %d: %+v", counted, k, ch)
					return false
				}
			}
			return counted || readsPanic(&got)
		}
		if err := quick.Check(byValue, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}

		// One plan per profile, plus a plan that is Set again before every
		// use, so both ways a plan's identity moves are covered.
		byPlan := func(s chargeSeq, reuse bool) bool {
			got := dirCounters{counted: counted}
			var want dirCounters
			plans := make([]Plan, len(s.profiles))
			for i := range plans {
				plans[i].Set(0, &s.profiles[i])
			}
			var scratch Plan
			for k, ch := range s.charges {
				pl := &plans[ch.profile]
				if reuse {
					pl = &scratch
				}
				if pl.Bytes() != ch.nbytes || reuse {
					pl.Set(ch.nbytes, &s.profiles[ch.profile])
				}
				got.usePlan(pl)
				got.add(pl.Bytes())
				refAdd(&want, ch.nbytes, s.profiles[ch.profile])
				if !sameCounters(&got, &want) {
					t.Logf("by plan (counted=%v, reuse=%v): diverged at charge %d: %+v", counted, reuse, k, ch)
					return false
				}
			}
			return counted || readsPanic(&got)
		}
		if err := quick.Check(byPlan, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}
	}
}

// TestAddMemoHits: the equivalence above would also hold for a memo that
// never hit; this pins that a steady charge derives its increments once.
func TestAddMemoHits(t *testing.T) {
	profile := TrafficProfile{0.1, 0, 0.2, 0, 0, 0.7}
	var pl Plan
	pl.Set(3000, &profile)
	var c dirCounters
	c.usePlan(&pl)
	c.add(pl.Bytes())
	c.pktInc[0] = math.NaN() // a second derive would overwrite this
	for i := 0; i < 10; i++ {
		c.usePlan(&pl)
		c.add(pl.Bytes())
	}
	if !math.IsNaN(c.pktInc[0]) {
		t.Error("a repeated plan re-derived its increments")
	}
	pl.Set(3000, &profile)
	c.usePlan(&pl)
	c.add(pl.Bytes())
	if math.IsNaN(c.pktInc[0]) {
		t.Error("a plan that was Set again kept the old increments")
	}
}

// TestAddRejectsUnsplittableCharge: the int64 packet split is exact only
// below 2^62 packets per bin, and add refuses what it cannot split.
func TestAddRejectsUnsplittableCharge(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nbytes  float64
		profile TrafficProfile
	}{
		{"huge", 1e30, TrafficProfile{1}},
		{"infinite", math.Inf(1), TrafficProfile{1}},
		{"negative fraction", 1500, TrafficProfile{-0.5, 1.5}},
		{"NaN fraction", 1500, TrafficProfile{math.NaN(), 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			var c dirCounters
			c.useProfile(&tc.profile)
			c.add(tc.nbytes)
		})
	}
}
