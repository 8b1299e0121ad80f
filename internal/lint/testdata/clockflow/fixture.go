// Package cflowfix seeds clockflow findings: direct wall-clock reads in
// a clock-domain package (collector) and transitive chains that reach
// the clock or the global math/rand source through calls, including
// interface dispatch.
package cflowfix

import (
	"math/rand"
	"time"
)

// DirectRead reads the clock directly.
func DirectRead() int64 {
	return time.Now().UnixNano() // want `wall-clock time\.Now in mburst/internal/collector/cflowfix`
}

// Entry is two hops above the sink. The chain is flagged once, at the
// call that commits to it (mid's call into leafClock), not at Entry.
func Entry() time.Duration { return mid() }

func mid() time.Duration {
	return leafClock() // want `cflowfix\.mid reaches time\.Since: cflowfix\.mid -> cflowfix\.leafClock \(fixture\.go:\d+\) -> time\.Since`
}

func leafClock() time.Duration {
	return time.Since(time.Time{}) // want `wall-clock time\.Since`
}

// RollEntry reaches the global math/rand source through a helper; the
// direct call in roll is globalrand's finding, the chain is clockflow's.
func RollEntry() int {
	return roll() // want `reaches rand\.Intn.*derive randomness with rng\.New/Split`
}

func roll() int { return rand.Intn(6) }

type source interface{ sample() int64 }

type clockSource struct{}

func (clockSource) sample() int64 {
	return time.Now().UnixNano() // want `wall-clock time\.Now`
}

// Collect reaches the clock through interface dispatch: method-set
// resolution fans the call out to clockSource.sample.
func Collect(s source) int64 {
	return s.sample() // want `reaches time\.Now`
}

// now is a value reference, not a call: the injectable-default pattern
// stays legal.
var now = time.Now

// Injected takes its clock as a parameter; a call through a func value
// is not taint — the injection point is exactly the sanctioned fix.
func Injected(clock func() time.Time) time.Time {
	return clock()
}

// Seeded constructs an explicitly seeded source: rand constructors are
// not sinks (the seed is the determinism).
func Seeded() *rand.Rand { return rand.New(rand.NewSource(1)) }
