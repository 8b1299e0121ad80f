// Package eventq implements the discrete-event kernel that drives the rack
// simulator and the collection framework's virtual scheduling.
//
// The kernel is a classic event-list design: a binary min-heap of events
// ordered by (time, sequence number). The sequence number makes the order of
// same-instant events deterministic — FIFO in scheduling order — which is
// required for bit-reproducible campaigns (DESIGN.md §4).
//
// Events are values in a typed heap: scheduling one allocates nothing
// beyond the heap's amortized growth, and no handle escapes, because no
// caller cancels or inspects a scheduled event.
//
// The scheduler exposes both a run-to-completion loop and a bounded
// RunUntil used by the simulator's tick engine to interleave event
// processing with per-tick fluid updates.
package eventq

import (
	"fmt"

	"mburst/internal/obs"
	"mburst/internal/simclock"
)

// Handler is the callback invoked when an event fires. now is the event's
// scheduled time, which is also the scheduler clock's current time.
type Handler func(now simclock.Time)

// event is one scheduled callback, held by value in the queue.
type event struct {
	at      simclock.Time
	schedAt simclock.Time // clock time when the event was enqueued
	seq     uint64
	fn      Handler
}

// before reports whether e fires ahead of o: earlier time first, then
// scheduling order. (at, seq) is a total order, so firing order does not
// depend on how the heap is laid out.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler owns the virtual clock and the pending event set.
type Scheduler struct {
	clock *simclock.Clock
	pq    []event // binary min-heap by (at, seq)
	seq   uint64

	// processed counts events fired since construction; exposed for tests
	// and for the simulator's progress accounting.
	processed uint64

	// dispatched/depth/dispatchLat are nil-safe telemetry hooks (see
	// Instrument); nil (the default) costs one predicted branch per event.
	dispatched  *obs.Counter
	depth       *obs.Gauge
	dispatchLat *obs.Gauge
}

// NewScheduler returns an empty scheduler positioned at the epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{clock: simclock.NewClock()}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() simclock.Time { return s.clock.Now() }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return len(s.pq) }

// Processed returns the number of events fired so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Instrument exposes kernel health on reg: events dispatched and the
// pending-queue depth. The depth gauge is updated from Step (an atomic
// store per event) rather than read at scrape time, so concurrent
// scrapes never touch the unsynchronized heap. Nil reg is a no-op.
func (s *Scheduler) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	s.dispatched = reg.Counter("mburst_eventq_dispatched_total",
		"Events fired by the discrete-event kernel.", labels...)
	s.depth = reg.Gauge("mburst_eventq_depth",
		"Pending events in the kernel's queue (updated per dispatch).", labels...)
	s.depth.Set(float64(len(s.pq)))
	s.dispatchLat = reg.Gauge("mburst_eventq_dispatch_latency_ns",
		"Virtual-time delay of the last dispatched event: fire time minus enqueue time.", labels...)
}

// At schedules fn to run at time t. Scheduling in the past panics: an
// event that should already have happened indicates a logic error and
// silently reordering it would corrupt counter timelines.
//
// It runs for every event of every campaign and allocates nothing once
// the queue has grown to its working depth
// (TestSchedulerAllocatesNothingPerEvent).
func (s *Scheduler) At(t simclock.Time, fn Handler) {
	now := s.clock.Now()
	if t < now {
		panic(fmt.Sprintf("eventq: scheduling at %v, before now %v", t, now))
	}
	if fn == nil {
		panic("eventq: nil handler")
	}
	s.push(event{at: t, schedAt: now, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d simclock.Duration, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("eventq: negative delay %v", d))
	}
	s.At(s.clock.Now().Add(d), fn)
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if no events are pending.
func (s *Scheduler) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := s.pop()
	s.clock.AdvanceTo(e.at)
	s.processed++
	s.dispatched.Inc()
	s.depth.Set(float64(len(s.pq)))
	s.dispatchLat.Set(float64(e.at.Sub(e.schedAt)))
	e.fn(e.at)
	return true
}

// RunUntil fires all events scheduled at or before deadline, then advances
// the clock to the deadline. Events scheduled during the run are processed
// too if they fall within the deadline.
func (s *Scheduler) RunUntil(deadline simclock.Time) {
	for len(s.pq) > 0 && s.pq[0].at <= deadline {
		s.Step()
	}
	if deadline > s.clock.Now() {
		s.clock.AdvanceTo(deadline)
	}
}

// Run fires events until none remain or until maxEvents have been
// processed (0 means no limit). It returns the number of events fired.
func (s *Scheduler) Run(maxEvents uint64) uint64 {
	var n uint64
	for maxEvents == 0 || n < maxEvents {
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

// push adds e to the heap. The sifts move a hole rather than swapping:
// each level writes one event instead of two.
func (s *Scheduler) push(e event) {
	s.pq = append(s.pq, event{})
	i := len(s.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&s.pq[parent]) {
			break
		}
		s.pq[i] = s.pq[parent]
		i = parent
	}
	s.pq[i] = e
}

// pop removes and returns the earliest event. The vacated last slot is
// zeroed so the queue's backing array keeps no handler alive.
func (s *Scheduler) pop() event {
	h := s.pq
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	s.pq = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}
