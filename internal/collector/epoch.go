package collector

import (
	"sync"

	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// EpochGate is BatchHandler middleware that enforces agent restart-epoch
// ordering per rack before batches reach the real handler.
//
// A crashed-and-restarted agent resumes with a higher wire.Batch.Epoch.
// Without a gate, batches from the superseded incarnation — retried by a
// dying flusher or delivered late over a stale TCP flow — interleave with
// the new stream and corrupt the cumulative-counter deltas downstream.
// The gate applies two rules per rack:
//
//   - A batch whose epoch is below the rack's current epoch is stale and
//     dropped.
//   - Within an epoch, sample time must not regress: a batch whose first
//     sample predates the newest sample already accepted is a duplicate
//     or reordering and is dropped.
//
// Epoch increases are accepted unconditionally and reset the rack's time
// horizon, because a restarted agent legitimately restarts its clock.
//
// The gate is a stage of every Shard pipeline, always on: a feed that
// restarts virtual time without bumping the epoch is rejected by the
// time-regression rule. replay.Run stamps each window of a rack with the
// next epoch for exactly that reason, so a replayed campaign passes.
// (ServerConfig.EpochGate interposes one ahead of a handler that is not
// a Shard.)
type EpochGate struct {
	next   BatchHandler
	m      ServerMetrics
	tracer *ptrace.Tracer

	mu    sync.Mutex
	racks map[uint32]*rackEpoch
}

// rackEpoch is one rack's admission state; seen sits beside epoch, in
// what would otherwise be padding.
type rackEpoch struct {
	epoch    uint32
	seen     bool
	lastTime simclock.Time
}

// NewEpochGate wraps next; m may be nil.
func NewEpochGate(next BatchHandler, m *ServerMetrics) *EpochGate {
	if next == nil {
		panic("collector: nil handler")
	}
	g := &EpochGate{next: next, racks: make(map[uint32]*rackEpoch)}
	if m != nil {
		g.m = *m
	}
	return g
}

// Handle implements BatchHandler. It is safe for concurrent use.
func (g *EpochGate) Handle(b *wire.Batch) {
	verdict := g.admit(b)
	recordStageSpan(g.tracer, ptrace.StageEpochGate, b, verdict)
	if verdict != ptrace.VerdictAccept {
		return
	}
	g.next(b)
}

// admit applies the epoch and ordering rules, updating per-rack state,
// and returns the ptrace verdict token.
func (g *EpochGate) admit(b *wire.Batch) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.racks[b.Rack]
	if st == nil {
		st = &rackEpoch{}
		g.racks[b.Rack] = st
	}
	switch {
	case !st.seen || b.Epoch > st.epoch:
		if st.seen && b.Epoch > st.epoch {
			g.m.EpochRestarts.Inc()
		}
		st.epoch = b.Epoch
		st.seen = true
		st.lastTime = 0
	case b.Epoch < st.epoch:
		g.m.StaleBatches.Inc()
		return ptrace.VerdictDropStale
	}
	if len(b.Samples) == 0 {
		return ptrace.VerdictAccept
	}
	if b.Samples[0].Time < st.lastTime {
		g.m.ReorderedBatches.Inc()
		return ptrace.VerdictDropReorder
	}
	if last := b.Samples[len(b.Samples)-1].Time; last > st.lastTime {
		st.lastTime = last
	}
	return ptrace.VerdictAccept
}
