package eventq

import (
	"testing"

	"mburst/internal/rng"
	"mburst/internal/simclock"
)

// TestStressRandomSchedule hammers the scheduler with a large randomized
// mix of scheduling and nested scheduling, then verifies global ordering,
// exact counts, and heap integrity.
func TestStressRandomSchedule(t *testing.T) {
	src := rng.New(12345)
	s := NewScheduler()

	const initial = 50_000
	fired := 0
	var lastAt simclock.Time

	handler := func(now simclock.Time) {
		if now < lastAt {
			t.Fatalf("ordering violated: %v after %v", now, lastAt)
		}
		lastAt = now
		fired++
	}

	for i := 0; i < initial; i++ {
		at := simclock.Epoch.Add(simclock.Duration(src.Intn(10_000_000)))
		s.At(at, handler)
	}

	// Some events spawn children while running (children also count).
	spawned := 0
	for i := 0; i < 5_000; i++ {
		at := simclock.Epoch.Add(simclock.Duration(src.Intn(10_000_000)))
		s.At(at, func(now simclock.Time) {
			handler(now)
			if spawned < 2_000 {
				spawned++
				s.After(simclock.Duration(src.Intn(1000)+1), handler)
			}
		})
	}

	s.Run(0)

	// Each spawning event fires its own handler call plus the child's.
	want := initial + 5_000 + spawned
	// The spawning wrapper calls handler itself, so total handler calls:
	if fired != want {
		t.Fatalf("fired %d handler calls, want %d (spawned %d)", fired, want, spawned)
	}
	if s.Len() != 0 {
		t.Errorf("events left in heap: %d", s.Len())
	}
	if s.Processed() != uint64(want) {
		t.Errorf("Processed = %d, want %d", s.Processed(), want)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	src := rng.New(1)
	noop := func(simclock.Time) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(simclock.Duration(src.Intn(1000)+1), noop)
		if i%2 == 1 {
			s.Step()
			s.Step()
		}
	}
	s.Run(0)
}

func BenchmarkSchedulerDeepHeap(b *testing.B) {
	// Sustained 10k-pending-event heap: the simulator's steady state.
	s := NewScheduler()
	src := rng.New(2)
	noop := func(simclock.Time) {}
	for i := 0; i < 10_000; i++ {
		s.After(simclock.Duration(src.Intn(1_000_000)+1), noop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(simclock.Duration(src.Intn(1_000_000)+1), noop)
		s.Step()
	}
}
