// Package lockfix seeds lockorder's re-entry findings: holding the
// receiver's mutex (or taking it inside a function literal) while
// calling something that acquires it again — a sibling method, a helper
// one call further down, a function literal or a deferred call.
package lockfix

import "sync"

// Box guards n with mu; Snapshot and LogState both acquire it.
type Box struct {
	mu  sync.Mutex
	aux sync.Mutex
	n   int
}

// Snapshot acquires mu.
func (b *Box) Snapshot() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// LogState is the logging-helper shape from the PR 1 incident.
func (b *Box) LogState(sink *[]int) {
	b.mu.Lock()
	*sink = append(*sink, b.n)
	b.mu.Unlock()
}

// Bad holds mu across a call to Snapshot, which re-acquires it.
func (b *Box) Bad() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n + b.Snapshot() // want `possible re-entry on lockfix\.Box\.mu \(same lock type\): lockfix\.\(\*Box\)\.Bad holds it and calls lockfix\.\(\*Box\)\.Snapshot -> lockfix\.Box\.mu\.Lock \(fixture\.go:18\)`
}

// BadLog deadlocks on the logging helper while holding mu explicitly.
func (b *Box) BadLog(sink *[]int) {
	b.mu.Lock()
	b.LogState(sink) // want `possible re-entry on lockfix\.Box\.mu \(same lock type\): lockfix\.\(\*Box\)\.BadLog holds it and calls lockfix\.\(\*Box\)\.LogState`
	b.mu.Unlock()
}

// Good releases mu before calling the sibling.
func (b *Box) Good() int {
	b.mu.Lock()
	n := b.n
	b.mu.Unlock()
	return n + b.Snapshot()
}

// DisjointLocks holds aux, not mu; calling Snapshot is safe.
func (b *Box) DisjointLocks() int {
	b.aux.Lock()
	defer b.aux.Unlock()
	return b.Snapshot()
}

// TwoHop re-enters mu two calls down: through a package function that
// calls Snapshot.
func (b *Box) TwoHop() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return helper(b) // want `possible re-entry on lockfix\.Box\.mu \(same lock type\): lockfix\.\(\*Box\)\.TwoHop holds it and calls lockfix\.helper -> lockfix\.\(\*Box\)\.Snapshot \(fixture\.go:\d+\) -> lockfix\.Box\.mu\.Lock`
}

func helper(b *Box) int { return b.Snapshot() }

// InClosure re-enters mu from a function literal built while mu is held.
func (b *Box) InClosure() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := func() int { return b.Snapshot() } // want `possible re-entry on lockfix\.Box\.mu \(same lock type\): lockfix\.\(\*Box\)\.InClosure holds it and calls lockfix\.\(\*Box\)\.Snapshot`
	return f()
}

// InDefer defers LogState after the deferred Unlock: deferred calls run
// last-in first-out, so LogState runs while mu is still held.
func (b *Box) InDefer(sink *[]int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.LogState(sink) // want `possible re-entry on lockfix\.Box\.mu \(same lock type\): lockfix\.\(\*Box\)\.InDefer holds it and calls lockfix\.\(\*Box\)\.LogState`
}

// InGoroutine takes mu inside a go'd literal and calls LogState there.
func (b *Box) InGoroutine(sink *[]int) {
	go func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.LogState(sink) // want `possible re-entry on lockfix\.Box\.mu \(same lock type\): lockfix\.\(\*Box\)\.InGoroutine holds it and calls lockfix\.\(\*Box\)\.LogState`
	}()
}

// InDeferredClosure takes mu inside a deferred literal and calls
// Snapshot there.
func (b *Box) InDeferredClosure() {
	defer func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		_ = b.Snapshot() // want `possible re-entry on lockfix\.Box\.mu \(same lock type\): lockfix\.\(\*Box\)\.InDeferredClosure holds it and calls lockfix\.\(\*Box\)\.Snapshot`
	}()
}

// ClosureReleases unlocks mu inside its literal before calling Snapshot.
func (b *Box) ClosureReleases() int {
	f := func() int {
		b.mu.Lock()
		n := b.n
		b.mu.Unlock()
		return n + b.Snapshot()
	}
	return f()
}

// OtherInstance holds b.mu and calls Snapshot on a different Box. Lock
// identity is structural (Box.mu), so this is reported as possible
// re-entry even though the two instances never share a mutex.
func (b *Box) OtherInstance(c *Box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return c.Snapshot() // want `possible re-entry on lockfix\.Box\.mu \(same lock type\): lockfix\.\(\*Box\)\.OtherInstance holds it and calls lockfix\.\(\*Box\)\.Snapshot`
}
