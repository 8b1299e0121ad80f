// Package wallfix seeds direct wall-clock calls for clockflow. The test
// loads it under a clock-domain import path
// (mburst/internal/simnet/wallfix), and again under one outside the
// domain, where it must be clean.
package wallfix

import "time"

// A package-level initializer runs too, before main.
var _ = time.Now() // want `wall-clock time\.Now`

// Sleeper shows the injectable escape hatch: referencing time.Sleep as a
// value (to store in a Sleep field) is allowed; only calls are flagged.
var Sleeper = time.Sleep

// Clock is the other sanctioned shape: a field the caller injects.
type Clock struct {
	Now   func() time.Time
	Sleep func(time.Duration)
}

// Bad exercises every flagged call form.
func Bad() time.Time {
	t := time.Now()                 // want `wall-clock time\.Now`
	time.Sleep(time.Millisecond)    // want `wall-clock time\.Sleep`
	<-time.After(time.Millisecond)  // want `wall-clock time\.After`
	_ = time.NewTimer(time.Second)  // want `wall-clock time\.NewTimer`
	_ = time.NewTicker(time.Second) // want `wall-clock time\.NewTicker`
	_ = time.Since(t)               // want `wall-clock time\.Since`
	return t
}

// Later reads the clock from inside a function literal.
func Later(t time.Time) func() time.Duration {
	return func() time.Duration {
		return time.Until(t) // want `wall-clock time\.Until`
	}
}

// Good takes time through the injected clock only.
func Good(c Clock) time.Time {
	c.Sleep(time.Millisecond)
	return c.Now()
}
