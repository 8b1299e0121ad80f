package eventq

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mburst/internal/simclock"
)

// refScheduler is Scheduler as it stood before events became values: a
// container/heap of *refEvent ordered by (at, seq), one allocation per At.
// Telemetry is left out, and At no longer returns the handle no caller
// kept; neither touches ordering.
type refScheduler struct {
	clock     *simclock.Clock
	pq        refEventHeap
	seq       uint64
	processed uint64
}

type refEvent struct {
	at      simclock.Time
	schedAt simclock.Time
	seq     uint64
	fn      Handler
}

func newRefScheduler() *refScheduler {
	return &refScheduler{clock: simclock.NewClock()}
}

func (s *refScheduler) Now() simclock.Time { return s.clock.Now() }
func (s *refScheduler) Len() int           { return s.pq.Len() }
func (s *refScheduler) Processed() uint64  { return s.processed }

func (s *refScheduler) At(t simclock.Time, fn Handler) {
	if t < s.clock.Now() {
		panic(fmt.Sprintf("eventq: scheduling at %v, before now %v", t, s.clock.Now()))
	}
	if fn == nil {
		panic("eventq: nil handler")
	}
	e := &refEvent{at: t, schedAt: s.clock.Now(), seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.pq, e)
}

func (s *refScheduler) After(d simclock.Duration, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("eventq: negative delay %v", d))
	}
	s.At(s.clock.Now().Add(d), fn)
}

func (s *refScheduler) Step() bool {
	if s.pq.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.pq).(*refEvent)
	s.clock.AdvanceTo(e.at)
	s.processed++
	e.fn(e.at)
	return true
}

func (s *refScheduler) RunUntil(deadline simclock.Time) {
	for s.pq.Len() > 0 && s.pq[0].at <= deadline {
		if !s.Step() {
			break
		}
	}
	if deadline > s.clock.Now() {
		s.clock.AdvanceTo(deadline)
	}
}

func (s *refScheduler) Run(maxEvents uint64) uint64 {
	var n uint64
	for maxEvents == 0 || n < maxEvents {
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }

func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refEventHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// kernel is the surface both schedulers share, so one script drives
// either.
type kernel interface {
	At(simclock.Time, Handler)
	Step() bool
	RunUntil(simclock.Time)
	Run(uint64) uint64
	Now() simclock.Time
	Processed() uint64
	Len() int
}

// Operations a script applies between comparisons.
const (
	opAt = iota
	opStep
	opRunUntil
	opRun
	numOps
)

type scriptOp struct {
	kind int
	d    int64  // opAt: delay from now; opRunUntil: deadline past now (ns)
	max  uint64 // opRun's bound; 0 runs to completion
}

// script is a generated schedule: initial events bunched into a few
// nanoseconds so instants collide, a table of child delays (zero included,
// so a handler can schedule at its own instant behind events already
// queued there), and a sequence of operations.
type script struct {
	initial []int64
	delays  []int64
	ops     []scriptOp
}

// Generate implements quick.Generator.
func (script) Generate(r *rand.Rand, size int) reflect.Value {
	var s script
	for i := r.Intn(size + 10); i > 0; i-- {
		s.initial = append(s.initial, int64(r.Intn(12)))
	}
	for i := 1 + r.Intn(6); i > 0; i-- {
		s.delays = append(s.delays, int64(r.Intn(4)))
	}
	for i := r.Intn(size + 10); i > 0; i-- {
		op := scriptOp{kind: r.Intn(numOps), d: int64(r.Intn(8))}
		if op.kind == opRun && r.Intn(4) > 0 {
			op.max = uint64(1 + r.Intn(6))
		}
		s.ops = append(s.ops, op)
	}
	return reflect.ValueOf(s)
}

// fired is one handler call: which event, at what instant.
type fired struct {
	id  int
	now simclock.Time
}

// play runs s on k and returns everything observable after each
// operation: the firing log, and per operation its result, the clock,
// Processed and Len.
func (s script) play(k kernel) (log []fired, trail []uint64) {
	next := 0
	var schedule func(at simclock.Time, depth int)
	schedule = func(at simclock.Time, depth int) {
		id := next
		next++
		k.At(at, func(now simclock.Time) {
			log = append(log, fired{id, now})
			if depth >= 2 {
				return
			}
			// Each event spawns 0–2 children, delays drawn from the table.
			for j := 0; j < id%3; j++ {
				d := s.delays[(id+j)%len(s.delays)]
				schedule(now.Add(simclock.Duration(d)), depth+1)
			}
		})
	}
	for _, at := range s.initial {
		schedule(simclock.Epoch.Add(simclock.Duration(at)), 0)
	}
	for _, op := range append(s.ops, scriptOp{kind: opRun}) {
		var result uint64
		switch op.kind {
		case opAt:
			schedule(k.Now().Add(simclock.Duration(op.d)), 0)
		case opStep:
			if k.Step() {
				result = 1
			}
		case opRunUntil:
			k.RunUntil(k.Now().Add(simclock.Duration(op.d)))
		case opRun:
			result = k.Run(op.max)
		}
		trail = append(trail, result, uint64(k.Now()), k.Processed(), uint64(k.Len()), uint64(len(log)))
	}
	return log, trail
}

// TestSchedulerMatchesReference: over generated schedules — same-instant
// ties, handlers scheduling during dispatch (at their own instant too),
// and interleaved At, Step, RunUntil and bounded Run — the value heap
// fires the same events at the same instants in the same order as
// refScheduler, and leaves the same clock, Processed and Len after every
// operation.
func TestSchedulerMatchesReference(t *testing.T) {
	var sawTie, sawChild bool
	check := func(s script) bool {
		gotLog, gotTrail := s.play(NewScheduler())
		wantLog, wantTrail := s.play(newRefScheduler())
		if !reflect.DeepEqual(gotLog, wantLog) || !reflect.DeepEqual(gotTrail, wantTrail) {
			t.Logf("diverged:\n got %v %v\nwant %v %v", gotLog, gotTrail, wantLog, wantTrail)
			return false
		}
		for i := 1; i < len(gotLog); i++ {
			sawTie = sawTie || gotLog[i].now == gotLog[i-1].now
		}
		sawChild = sawChild || len(gotLog) > len(s.initial)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if !sawTie || !sawChild {
		t.Errorf("schedules too tame to mean much: ties=%v children=%v", sawTie, sawChild)
	}
}
