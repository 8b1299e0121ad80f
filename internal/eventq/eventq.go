// Package eventq implements the discrete-event kernel that drives the rack
// simulator and the collection framework's virtual scheduling.
//
// The kernel is a classic event-list design: a binary min-heap of events
// ordered by (time, sequence number). The sequence number makes the order of
// same-instant events deterministic — FIFO in scheduling order — which is
// required for bit-reproducible campaigns (DESIGN.md §4).
//
// The scheduler exposes both a run-to-completion loop and a bounded
// RunUntil used by the simulator's tick engine to interleave event
// processing with per-tick fluid updates.
package eventq

import (
	"container/heap"
	"fmt"

	"mburst/internal/obs"
	"mburst/internal/simclock"
)

// Handler is the callback invoked when an event fires. now is the event's
// scheduled time, which is also the scheduler clock's current time.
type Handler func(now simclock.Time)

// Event is a handle for a scheduled event.
type Event struct {
	at      simclock.Time
	schedAt simclock.Time // clock time when the event was enqueued
	seq     uint64
	fn      Handler
}

// At returns the time the event is (or was) scheduled to fire.
func (e *Event) At() simclock.Time { return e.at }

// Scheduler owns the virtual clock and the pending event set.
type Scheduler struct {
	clock *simclock.Clock
	pq    eventHeap
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
func (s *Scheduler) Len() int { return s.pq.Len() }

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
	s.depth.Set(float64(s.pq.Len()))
	s.dispatchLat = reg.Gauge("mburst_eventq_dispatch_latency_ns",
		"Virtual-time delay of the last dispatched event: fire time minus enqueue time.", labels...)
}

// At schedules fn to run at time t. Scheduling in the past panics: an
// event that should already have happened indicates a logic error and
// silently reordering it would corrupt counter timelines.
func (s *Scheduler) At(t simclock.Time, fn Handler) *Event {
	if t < s.clock.Now() {
		panic(fmt.Sprintf("eventq: scheduling at %v, before now %v", t, s.clock.Now()))
	}
	if fn == nil {
		panic("eventq: nil handler")
	}
	e := &Event{at: t, schedAt: s.clock.Now(), seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.pq, e)
	return e
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d simclock.Duration, fn Handler) *Event {
	if d < 0 {
		panic(fmt.Sprintf("eventq: negative delay %v", d))
	}
	return s.At(s.clock.Now().Add(d), fn)
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if no events are pending.
func (s *Scheduler) Step() bool {
	if s.pq.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.pq).(*Event)
	s.clock.AdvanceTo(e.at)
	s.processed++
	s.dispatched.Inc()
	s.depth.Set(float64(s.pq.Len()))
	s.dispatchLat.Set(float64(e.at.Sub(e.schedAt)))
	e.fn(e.at)
	return true
}

// RunUntil fires all events scheduled at or before deadline, then advances
// the clock to the deadline. Events scheduled during the run are processed
// too if they fall within the deadline.
func (s *Scheduler) RunUntil(deadline simclock.Time) {
	for s.pq.Len() > 0 && s.pq[0].at <= deadline {
		if !s.Step() {
			break
		}
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

// eventHeap implements heap.Interface ordered by (time, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
