package fault

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mburst/internal/obs"
	"mburst/internal/rng"
	"mburst/internal/simclock"
)

type nopWC struct{ bytes.Buffer }

func (n *nopWC) Close() error { return nil }

func TestGateDialAndWrite(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	g := NewGate(m)
	var conn nopWC
	dial := g.Dialer(func() (io.WriteCloser, error) { return &conn, nil })

	wc, err := dial()
	if err != nil {
		t.Fatalf("dial through up gate: %v", err)
	}
	if _, err := wc.Write([]byte("ok")); err != nil {
		t.Fatalf("write through up gate: %v", err)
	}

	g.Down()
	if !g.IsDown() {
		t.Fatal("IsDown() = false after Down()")
	}
	if _, err := dial(); !errors.Is(err, ErrInjected) {
		t.Errorf("dial through down gate: err = %v, want ErrInjected", err)
	}
	// A connection established before the outage dies on its next write.
	if _, err := wc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("write through down gate: err = %v, want ErrInjected", err)
	}

	g.Up()
	if _, err := dial(); err != nil {
		t.Errorf("dial after Up(): %v", err)
	}
	if _, err := wc.Write([]byte("y")); err != nil {
		t.Errorf("write after Up(): %v", err)
	}
	if got := m.DialErrors.Value(); got != 1 {
		t.Errorf("DialErrors = %d, want 1", got)
	}
	if got := m.WriteErrors.Value(); got != 1 {
		t.Errorf("WriteErrors = %d, want 1", got)
	}
}

func TestGateNilMetrics(t *testing.T) {
	g := NewGate(nil)
	g.Down()
	dial := g.Dialer(func() (io.WriteCloser, error) { return &nopWC{}, nil })
	if _, err := dial(); !errors.Is(err, ErrInjected) {
		t.Errorf("nil-metrics gate dial: err = %v, want ErrInjected", err)
	}
}

func TestFlakyDialerDeterministic(t *testing.T) {
	fails := func(seed uint64) []bool {
		src := rng.New(seed).Split("dial")
		dial := FlakyDialer(func() (io.WriteCloser, error) { return &nopWC{}, nil }, src, 0.5, nil)
		out := make([]bool, 32)
		for i := range out {
			_, err := dial()
			out[i] = err != nil
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("dial %d: err = %v, want ErrInjected", i, err)
			}
		}
		return out
	}
	a, b := fails(9), fails(9)
	var nFail int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at dial %d", i)
		}
		if a[i] {
			nFail++
		}
	}
	if nFail == 0 || nFail == len(a) {
		t.Errorf("pFail=0.5 produced %d/%d failures; want a mix", nFail, len(a))
	}
}

func TestPollerInjector(t *testing.T) {
	s, err := ParseSchedule("stuck@10ms+5ms,latency@20ms+10ms:x8,stall@25ms+10ms:500µs")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	inj := NewPollerInjector(s, m)
	base := 7 * simclock.Microsecond

	if d := inj.PollDelay(0, base); d != 0 {
		t.Errorf("PollDelay before faults = %v, want 0", d)
	}
	if inj.ReadStuck(0) {
		t.Error("ReadStuck before faults = true")
	}
	if !inj.ReadStuck(12 * simclock.Millisecond) {
		t.Error("ReadStuck inside stuck window = false")
	}
	// Latency only: (8-1)×7µs = 49µs extra.
	if d := inj.PollDelay(22*simclock.Millisecond, base); d != 49*simclock.Microsecond {
		t.Errorf("PollDelay in latency window = %v, want 49µs", d)
	}
	// Latency and stall overlap: 49µs + 500µs.
	if d := inj.PollDelay(26*simclock.Millisecond, base); d != 549*simclock.Microsecond {
		t.Errorf("PollDelay in overlap = %v, want 549µs", d)
	}
	// Stall only.
	if d := inj.PollDelay(31*simclock.Millisecond, base); d != 500*simclock.Microsecond {
		t.Errorf("PollDelay in stall window = %v, want 500µs", d)
	}
	if got := m.StuckPolls.Value(); got != 1 {
		t.Errorf("StuckPolls = %d, want 1", got)
	}
	if m.DelayNanos.Value() == 0 {
		t.Error("DelayNanos not accumulated")
	}

	// Empty schedule injects nothing and touches no metrics.
	quiet := NewPollerInjector(Schedule{}, nil)
	if d := quiet.PollDelay(22*simclock.Millisecond, base); d != 0 {
		t.Errorf("empty schedule PollDelay = %v, want 0", d)
	}
	if quiet.ReadStuck(12 * simclock.Millisecond) {
		t.Error("empty schedule ReadStuck = true")
	}
}
