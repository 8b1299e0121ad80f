package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"mburst/internal/simclock"
)

func TestFiringOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(simclock.Epoch.Add(simclock.Micros(30)), func(simclock.Time) { got = append(got, 3) })
	s.At(simclock.Epoch.Add(simclock.Micros(10)), func(simclock.Time) { got = append(got, 1) })
	s.At(simclock.Epoch.Add(simclock.Micros(20)), func(simclock.Time) { got = append(got, 2) })
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("firing order = %v", got)
	}
	if s.Now() != simclock.Epoch.Add(simclock.Micros(30)) {
		t.Errorf("clock = %v, want 30µs", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	at := simclock.Epoch.Add(simclock.Micros(5))
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func(simclock.Time) { got = append(got, i) })
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	s := NewScheduler()
	var fired simclock.Time
	s.After(simclock.Micros(7), func(now simclock.Time) { fired = now })
	s.Run(0)
	if fired != simclock.Epoch.Add(simclock.Micros(7)) {
		t.Errorf("After fired at %v", fired)
	}
}

func TestScheduleDuringRun(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.After(simclock.Micros(1), func(simclock.Time) {
		got = append(got, "a")
		s.After(simclock.Micros(1), func(simclock.Time) { got = append(got, "b") })
	})
	s.Run(0)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var got []int64
	for _, us := range []int64{10, 20, 30, 40} {
		us := us
		s.At(simclock.Epoch.Add(simclock.Micros(us)), func(simclock.Time) { got = append(got, us) })
	}
	deadline := simclock.Epoch.Add(simclock.Micros(25))
	s.RunUntil(deadline)
	if len(got) != 2 {
		t.Fatalf("RunUntil fired %v", got)
	}
	if s.Now() != deadline {
		t.Errorf("clock after RunUntil = %v, want %v", s.Now(), deadline)
	}
	// Boundary: events exactly at the deadline fire.
	s.RunUntil(simclock.Epoch.Add(simclock.Micros(30)))
	if len(got) != 3 || got[2] != 30 {
		t.Errorf("deadline-inclusive firing failed: %v", got)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(simclock.Epoch.Add(simclock.Micros(5)), func(simclock.Time) {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(simclock.Epoch, func(simclock.Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	s.At(simclock.Epoch, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	s.After(-1, func(simclock.Time) {})
}

func TestRunMaxEvents(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := int64(1); i <= 10; i++ {
		s.After(simclock.Micros(i), func(simclock.Time) { count++ })
	}
	if n := s.Run(4); n != 4 || count != 4 {
		t.Errorf("Run(4) fired %d/%d", n, count)
	}
	if n := s.Run(0); n != 6 || count != 10 {
		t.Errorf("Run(0) fired %d, total %d", n, count)
	}
	if s.Processed() != 10 {
		t.Errorf("Processed = %d", s.Processed())
	}
}

// Property: for any multiset of schedule times, events fire in sorted order
// and the clock never regresses.
func TestQuickSortedFiring(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		var fired []simclock.Time
		for _, r := range raw {
			at := simclock.Epoch.Add(simclock.Micros(int64(r)))
			s.At(at, func(now simclock.Time) { fired = append(fired, now) })
		}
		s.Run(0)
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := make([]int64, len(raw))
		for i, r := range raw {
			want[i] = int64(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i, at := range fired {
			if at.Microseconds() != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerAllocatesNothingPerEvent: scheduling and firing an event
// with a handler bound once costs no allocation once the queue has grown,
// so the kernel adds nothing per event to a campaign's garbage.
func TestSchedulerAllocatesNothingPerEvent(t *testing.T) {
	s := NewScheduler()
	fired := 0
	handler := func(simclock.Time) { fired++ }
	for i := int64(1); i <= 64; i++ { // a standing queue to sift through
		s.After(simclock.Duration(i)*simclock.Second, handler)
	}
	if allocs := testing.AllocsPerRun(10_000, func() {
		s.After(simclock.Microsecond, handler)
		s.Step()
	}); allocs != 0 {
		t.Errorf("At + Step allocates %v times per event, want 0", allocs)
	}
	if fired == 0 || s.Len() != 64 {
		t.Errorf("fired %d, pending %d: want every scheduled event fired and 64 pending", fired, s.Len())
	}
}
