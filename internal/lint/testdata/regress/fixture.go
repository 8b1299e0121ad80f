// Package regressfix seeds at least one violation per mblint rule. The
// regression test asserts exact file:line:col positions, so analyzer
// refactors cannot silently stop detecting a rule. Editing this file
// means updating the expected positions in regress_test.go.
package regressfix

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"mburst/internal/analysis"
	"mburst/internal/obs"
)

// Guarded exists for the re-entry seed.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Snapshot acquires mu (the re-entered callee).
func (g *Guarded) Snapshot() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Reentry holds mu across a re-acquiring sibling call.
func (g *Guarded) Reentry() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.Snapshot()
}

// DirectClock reads the wall clock in a clock-domain package.
func DirectClock() time.Time {
	return time.Now()
}

// Globalrand uses the global math/rand source.
func Globalrand() int {
	return rand.Intn(6)
}

// Ctxroot re-roots the context tree.
func Ctxroot() context.Context {
	return context.Background()
}

// Metricname registers outside the mburst_* scheme.
func Metricname(reg *obs.Registry) {
	reg.Counter("regress_bad_name", "Scheme violation.")
}

// Errfmt capitalizes an error string.
var Errfmt = errors.New("Seeded capitalized error")

// Mapiter ranges a SeriesKey-keyed map directly.
func Mapiter(m map[analysis.SeriesKey]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// ClockEntry reaches the wall clock two calls down; clockflow flags the
// innermost call of the chain (clockHop's call into hiddenClock).
func ClockEntry() time.Duration {
	return clockHop()
}

func clockHop() time.Duration {
	return hiddenClock()
}

func hiddenClock() time.Duration {
	//lint:ignore clockflow seeded sink; the chain is reported at the caller
	return time.Since(time.Time{})
}

// lockOrder seeds an inverted acquisition pair.
type lockOrder struct {
	a sync.Mutex
	b sync.Mutex
}

// LockAB takes a then b.
func (l *lockOrder) LockAB() {
	l.a.Lock()
	l.b.Lock()
	l.b.Unlock()
	l.a.Unlock()
}

// LockBA takes b then a: the inversion.
func (l *lockOrder) LockBA() {
	l.b.Lock()
	l.a.Lock()
	l.a.Unlock()
	l.b.Unlock()
}
