package fault

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"mburst/internal/collector"
	"mburst/internal/rng"
)

// ErrInjected marks a failure produced by the fault plane. Every error
// returned by this file's wrappers wraps it, so tests and callers can
// distinguish injected failures from real ones with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Gate is a scripted availability switch for the collector side of the
// transport. The harness flips it at schedule offsets (outage faults);
// dials and writes through a down gate fail immediately. The flag is
// atomic because the harness (event loop) and the agent's flusher
// goroutine touch it concurrently.
type Gate struct {
	down atomic.Bool
	m    Metrics
}

// NewGate returns an up gate feeding m (which may be nil).
func NewGate(m *Metrics) *Gate {
	g := &Gate{}
	if m != nil {
		g.m = *m
	}
	return g
}

// Down starts an outage: subsequent dials and writes fail.
func (g *Gate) Down() { g.down.Store(true) }

// Up ends the outage.
func (g *Gate) Up() { g.down.Store(false) }

// IsDown reports whether an outage is in progress.
func (g *Gate) IsDown() bool { return g.down.Load() }

// Dialer wraps next so that dials fail while the gate is down and
// established connections die on the first write attempted during an
// outage — modeling a collector crash that also resets live TCP flows,
// which is the case that exercises the client's redial-and-retry path.
func (g *Gate) Dialer(next collector.Dialer) collector.Dialer {
	return func() (io.WriteCloser, error) {
		if g.IsDown() {
			g.m.DialErrors.Inc()
			return nil, fmt.Errorf("fault: collector outage: %w", ErrInjected)
		}
		wc, err := next()
		if err != nil {
			return nil, err
		}
		return &gatedConn{gate: g, wc: wc}, nil
	}
}

// gatedConn fails writes while its gate is down.
type gatedConn struct {
	gate *Gate
	wc   io.WriteCloser
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.gate.IsDown() {
		c.gate.m.WriteErrors.Inc()
		return 0, fmt.Errorf("fault: collector outage: %w", ErrInjected)
	}
	return c.wc.Write(p)
}

func (c *gatedConn) Close() error { return c.wc.Close() }

// FlakyDialer fails a seeded fraction of dials, for soak tests that want
// unscripted connection churn on top of scheduled outages. The RNG source
// must be dedicated to this dialer (the flusher goroutine draws from it).
func FlakyDialer(next collector.Dialer, src *rng.Source, pFail float64, m *Metrics) collector.Dialer {
	var mm Metrics
	if m != nil {
		mm = *m
	}
	return func() (io.WriteCloser, error) {
		if pFail > 0 && src.Float64() < pFail {
			mm.DialErrors.Inc()
			return nil, fmt.Errorf("fault: flaky dial: %w", ErrInjected)
		}
		return next()
	}
}
