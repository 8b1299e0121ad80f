// Package rng provides the deterministic, splittable random number source
// used by every stochastic component of the simulator.
//
// Reproducibility is a hard requirement (DESIGN.md §4): a campaign run with
// a given seed and configuration must produce bit-identical traces. The
// standard library's math/rand global source would make component behaviour
// depend on call ordering across the whole program, so instead each
// component receives its own Source, derived from a parent by Split with a
// stable label. Splitting is one-way and label-keyed, which keeps streams
// independent even when components are added or reordered.
//
// The core generator is xoshiro256**, seeded through SplitMix64 — the
// combination recommended by the xoshiro authors and also used internally
// by the Go runtime.
package rng

import (
	"math"
)

// Source is a deterministic pseudo-random source with distribution helpers.
// A Source is not safe for concurrent use; the simulation kernel is
// single-threaded, and concurrent consumers must Split their own stream.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitMix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if src.s == [4]uint64{} {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// splitMix64 advances a SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent child Source keyed by label. The derivation
// hashes the label into the parent's next outputs, so the child stream is a
// pure function of (parent seed, split history, label) and is unaffected by
// how many values the parent has produced for other purposes after the
// split point.
func (r *Source) Split(label string) *Source {
	h := fnv64a(label)
	var child Source
	sm := r.Uint64() ^ h
	for i := range child.s {
		sm, child.s[i] = splitMix64(sm)
	}
	if child.s == [4]uint64{} {
		child.s[0] = h | 1
	}
	return &child
}

func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniformly distributed double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns a sample from the exponential distribution with the given
// mean. It panics if mean is not positive.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	u := r.Float64()
	// 1-u is in (0,1], so Log is finite.
	return -mean * math.Log(1-u)
}

// BoundedPareto returns a Pareto(xm, alpha) sample truncated by inversion to
// [xm, xmax]. Truncation by inversion (rather than rejection) keeps the
// stream consumption per call constant, which matters for reproducibility
// when configs change.
func (r *Source) BoundedPareto(xm, xmax, alpha float64) float64 {
	if xm <= 0 || xmax <= xm || alpha <= 0 {
		panic("rng: BoundedPareto with invalid parameters")
	}
	u := r.Float64()
	la := math.Pow(xm, alpha)
	ha := math.Pow(xmax, alpha)
	// Inverse CDF of the bounded Pareto.
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Normal returns a standard normal sample (Box–Muller, one value per call;
// the paired value is discarded to keep per-call stream consumption fixed).
func (r *Source) Normal() float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 64 (where
// the approximation error is far below the noise floor of the simulation).
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := mean + math.Sqrt(mean)*r.Normal()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical returns an index drawn with probability proportional to
// weights[i]. It panics if weights is empty or sums to <= 0.
func (r *Source) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical with no weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: Categorical with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	target := r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if acc > target {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
