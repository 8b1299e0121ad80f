package collector

import (
	"fmt"
	"sync"
	"time"
)

// This file is the fleet half of the sharded collection plane: the
// Aggregator receives shard-local accumulator snapshots (ShardUpdate)
// over a bounded fan-in queue and folds them into the fleet-wide view
// with the exact merge operations in merge.go.
//
// The queue discipline leans on a property of the updates themselves:
// a ShardUpdate is a *cumulative* state cut, not a delta. The
// aggregator only ever keeps the newest update per shard, so dropping
// an intermediate update under back pressure loses freshness, never
// data — the fleet state is exact as long as each shard's final update
// arrives, which is why Offer (lossy, counted) is the steady-state path
// and Deliver (blocking, counted) is reserved for cuts that must land.

// ShardUpdate is one shard's published accumulator state.
type ShardUpdate struct {
	// Shard is the publishing shard's placement index.
	Shard int `json:"shard"`
	// Seq orders a shard's updates; the aggregator keeps the highest.
	// A restarted shard begins again at 1, which supersedes the seed
	// state (Seq 0) an aggregator restored from the shard checkpoints.
	Seq uint64 `json:"seq"`
	// Figures is the shard's live-figures accumulator state.
	Figures FiguresState `json:"figures"`
	// Ingest is the shard's ingest accounting.
	Ingest Snapshot `json:"ingest"`
}

// FleetState is the merged fleet-wide view: the union of the newest
// update from every shard.
type FleetState struct {
	// Shards is how many placement shards the fleet has.
	Shards int `json:"shards"`
	// Reporting is how many shards have published at least one update.
	Reporting int `json:"reporting"`
	// Seqs records the merged update sequence per shard (0 = none yet).
	Seqs []uint64 `json:"seqs"`
	// Figures is the fleet-wide figures state (disjoint series union).
	Figures FiguresState `json:"figures"`
	// Ingest is the fleet-wide ingest accounting (summed).
	Ingest Snapshot `json:"ingest"`
}

// AggregatorConfig assembles an Aggregator.
type AggregatorConfig struct {
	// Shards is the fleet's shard count; required.
	Shards int
	// QueueDepth bounds the fan-in queue; <= 0 selects 4×Shards. A full
	// queue makes Offer drop (counted) and Deliver block (counted as a
	// deferral).
	QueueDepth int
	// Figures parameterizes FleetFigures' rendered snapshot; it must
	// match the shard-local LiveFiguresConfig for the fleet render to be
	// bit-identical to a single collector's. The zero value disables
	// rendering (FleetFigures errors); FleetState works regardless.
	Figures LiveFiguresConfig
	// Metrics receives fan-in and merge telemetry; may be nil.
	Metrics *AggregatorMetrics
	// Now, when non-nil, timestamps merges so Metrics.MergeLatency is
	// populated (the aggregator never reads the wall clock on its own).
	Now func() time.Time
}

// Aggregator is the fleet-wide merge tier: a bounded fan-in queue, a
// single drain goroutine applying updates newest-wins, and on-demand
// exact merges of the retained per-shard states.
type Aggregator struct {
	cfg AggregatorConfig
	m   AggregatorMetrics

	queue chan queued
	done  chan struct{}

	mu     sync.Mutex
	latest []ShardUpdate
	have   []bool

	// applyHook, when non-nil, observes every update entering apply —
	// a test seam for stalling the drain goroutine deterministically.
	applyHook func(ShardUpdate)
}

// queued is one fan-in queue entry: an update, or a flush sentinel
// (ack non-nil) that the drain goroutine acknowledges in FIFO order.
type queued struct {
	u   ShardUpdate
	ack chan<- struct{}
}

// NewAggregator validates cfg, starts the drain goroutine and returns
// the aggregator. Close releases it.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("collector: aggregator needs a positive shard count, got %d", cfg.Shards)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * cfg.Shards
	}
	a := &Aggregator{
		cfg:    cfg,
		queue:  make(chan queued, depth),
		done:   make(chan struct{}),
		latest: make([]ShardUpdate, cfg.Shards),
		have:   make([]bool, cfg.Shards),
	}
	if cfg.Metrics != nil {
		a.m = *cfg.Metrics
	}
	go a.drain()
	return a, nil
}

// Offer enqueues an update without blocking. When the queue is full the
// update is dropped and counted; the caller keeps polling/publishing
// and a newer cumulative update will carry the same data later. Returns
// whether the update was accepted. Must not be called after Close.
func (a *Aggregator) Offer(u ShardUpdate) bool {
	select {
	case a.queue <- queued{u: u}:
		a.m.Enqueued.Inc()
		a.m.QueueDepth.Set(float64(len(a.queue)))
		return true
	default:
		a.m.Dropped.Inc()
		return false
	}
}

// Deliver enqueues an update, blocking until the queue accepts it — the
// must-land path for final cuts. A full queue counts one deferral
// before the wait. Must not be called after Close.
func (a *Aggregator) Deliver(u ShardUpdate) {
	q := queued{u: u}
	select {
	case a.queue <- q:
	default:
		a.m.Deferred.Inc()
		a.queue <- q
	}
	a.m.Enqueued.Inc()
	a.m.QueueDepth.Set(float64(len(a.queue)))
}

// drain applies queued updates until Close.
func (a *Aggregator) drain() {
	defer close(a.done)
	for q := range a.queue {
		if q.ack != nil {
			close(q.ack)
			continue
		}
		if hook := a.hook(); hook != nil {
			hook(q.u)
		}
		a.apply(q.u)
		a.m.QueueDepth.Set(float64(len(a.queue)))
	}
}

// apply folds one update into the retained per-shard state: newest Seq
// wins, older ones count as stale, out-of-range shard indexes count as
// rejected.
//
// It runs per snapshot on the fan-in drain and allocates nothing
// (TestAggregatorApplyAllocatesNothing).
func (a *Aggregator) apply(u ShardUpdate) {
	if u.Shard < 0 || u.Shard >= len(a.latest) {
		a.m.Rejected.Inc()
		return
	}
	a.mu.Lock()
	if a.have[u.Shard] && u.Seq <= a.latest[u.Shard].Seq {
		a.mu.Unlock()
		a.m.Stale.Inc()
		return
	}
	a.latest[u.Shard] = u
	a.have[u.Shard] = true
	a.mu.Unlock()
	a.m.Applied.Inc()
}

// Flush blocks until every update enqueued before the call has been
// applied: a flush sentinel rides the FIFO queue behind them and the
// drain goroutine acknowledges it. Must not be called after Close.
func (a *Aggregator) Flush() {
	ack := make(chan struct{})
	a.queue <- queued{ack: ack}
	<-ack
}

// hook reads the drain-side observation hook. Test seam; see applyHook.
func (a *Aggregator) hook() func(ShardUpdate) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applyHook
}

// setHook installs the drain-side observation hook. Test seam.
func (a *Aggregator) setHook(fn func(ShardUpdate)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.applyHook = fn
}

// Close stops the drain goroutine after the queue empties. Producers
// must have stopped calling Offer/Deliver first.
func (a *Aggregator) Close() {
	close(a.queue)
	<-a.done
}

// FleetState merges the newest retained update from every shard into
// the fleet-wide state. The merge is exact: series union is disjoint
// under a valid placement (a duplicate series is returned as an error),
// ingest totals sum, and the per-shard Seqs record exactly which cuts
// the state reflects.
func (a *Aggregator) FleetState() (FleetState, error) {
	start := a.mark()
	a.mu.Lock()
	st := FleetState{Shards: len(a.latest), Seqs: make([]uint64, len(a.latest))}
	figs := make([]FiguresState, 0, len(a.latest))
	snaps := make([]Snapshot, 0, len(a.latest))
	for i := range a.latest {
		if !a.have[i] {
			continue
		}
		st.Reporting++
		st.Seqs[i] = a.latest[i].Seq
		figs = append(figs, a.latest[i].Figures)
		snaps = append(snaps, a.latest[i].Ingest)
	}
	a.mu.Unlock()
	var err error
	st.Figures, err = MergeFiguresStates(figs...)
	if err != nil {
		return FleetState{}, err
	}
	st.Ingest = MergeSnapshots(snaps...)
	a.m.Merges.Inc()
	a.observeSince(start)
	return st, nil
}

// FleetFigures renders the merged fleet state through a LiveFigures
// configured like the shards' — the fleet-wide Fig 3/4/6/9 snapshot,
// bit-identical to a single collector that ingested every batch.
func (a *Aggregator) FleetFigures() (FiguresSnapshot, error) {
	st, err := a.FleetState()
	if err != nil {
		return FiguresSnapshot{}, err
	}
	lf, err := NewLiveFigures(a.cfg.Figures)
	if err != nil {
		return FiguresSnapshot{}, fmt.Errorf("collector: fleet render needs the shard figures config: %w", err)
	}
	lf.RestoreState(st.Figures)
	return lf.Snapshot(), nil
}

// Restore seeds the retained per-shard states from the shards' own
// checkpoints — states[i] is what LoadCheckpoint returns for placement
// shard i's directory — as Seq-0 cuts that any live shard update
// supersedes. Call before traffic, typically right after NewAggregator
// when resuming a fleet.
func (a *Aggregator) Restore(states []CheckpointState) error {
	if len(states) != len(a.latest) {
		return fmt.Errorf("collector: %d shard checkpoints, aggregator has %d shards",
			len(states), len(a.latest))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, st := range states {
		u := ShardUpdate{Shard: i, Seq: 0}
		if st.Figures != nil {
			u.Figures = *st.Figures
		}
		if st.Ingest != nil {
			u.Ingest = *st.Ingest
		}
		a.latest[i] = u
		a.have[i] = true
	}
	return nil
}

// mark reads the configured clock, if any.
func (a *Aggregator) mark() time.Time {
	if a.cfg.Now == nil {
		return time.Time{}
	}
	return a.cfg.Now()
}

// observeSince records merge latency when a clock is configured.
func (a *Aggregator) observeSince(start time.Time) {
	if a.cfg.Now == nil {
		return
	}
	a.m.MergeLatency.Observe(float64(a.cfg.Now().Sub(start).Microseconds()))
}
