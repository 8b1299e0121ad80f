// Package replay streams a recorded campaign back out as a live batch
// feed — the standard trick for exercising collector deployments and
// dashboards with realistic data without re-running switches (or, here,
// simulations).
//
// Samples keep their original virtual timestamps; pacing maps virtual time
// onto wall-clock time with a configurable speedup, so a 2-minute campaign
// can replay in seconds while preserving inter-batch spacing. Batches carry
// the rack's window ordinal as their epoch (0 for a rack's first window).
// The replay transcodes: whatever format the trace was recorded in, the
// outgoing stream is MBW3, the one format anything writes.
package replay

import (
	"context"
	"fmt"
	"io"
	"time"

	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// Options configures a replay.
type Options struct {
	// Speedup divides virtual time when pacing: 0 or 1 replays in "real"
	// time, 100 replays 100× faster, and Unpaced skips sleeping entirely.
	Speedup float64
	// Unpaced streams as fast as the transport accepts.
	Unpaced bool
	// BatchSamples re-batches the stream into chunks of this many samples
	// (default 2048).
	BatchSamples int
	// Sleep is injectable for tests (default time.Sleep).
	Sleep func(time.Duration)
	// MaxGap bounds a single pacing sleep (after Speedup). Traces that
	// survived faults carry long sample gaps — agent outages, stalled
	// pollers — and replaying such a gap verbatim stalls the feed for the
	// whole fault duration. A non-zero MaxGap clamps each sleep so
	// downstream consumers see the gap without living through it; zero
	// preserves gaps verbatim. Clamps are tallied in Stats.GapClamps.
	MaxGap time.Duration
}

func (o *Options) applyDefaults() {
	if o.BatchSamples <= 0 {
		o.BatchSamples = 2048
	}
	if o.Speedup <= 0 {
		o.Speedup = 1
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
}

// Stats reports what a replay delivered.
type Stats struct {
	Windows int
	Batches int
	Samples int
	// VirtualSpan is the covered virtual time, summed per window (each
	// window's simulation restarts its clock).
	VirtualSpan simclock.Duration
	// GapClamps counts pacing sleeps shortened by Options.MaxGap.
	GapClamps int
}

// Run replays the campaign at dir into w as wire batches. ctx cancels a
// replay between batches; the stats delivered so far are returned with the
// cancellation error.
func Run(ctx context.Context, dir string, w io.Writer, opts Options) (Stats, error) {
	opts.applyDefaults()
	if ctx == nil {
		//lint:ignore ctxroot nil-ctx convenience fallback for library callers; no parent to thread
		ctx = context.Background()
	}
	var st Stats
	r, err := trace.Open(dir)
	if err != nil {
		return st, err
	}
	meta := r.Meta()
	var windows []int
	for i := 0; i < meta.Windows; i++ {
		if r.HasWindow(i) {
			windows = append(windows, i)
		}
	}
	bw := wire.NewWriter(w)
	// Each window's simulation restarts virtual time, so every window of a
	// rack after its first is stamped with the next epoch: an epoch-gated
	// collector takes the bump as a legitimate clock restart, where it
	// would drop a same-epoch time regression as reordering.
	ordinal := make(map[uint32]uint32)
	for _, idx := range windows {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		var pending []wire.Sample
		var rack uint32
		var batchStart simclock.Time
		var winFirst, winLast simclock.Time
		winSeen := false
		flush := func() error {
			if len(pending) == 0 {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := bw.WriteBatch(&wire.Batch{Rack: rack, Epoch: ordinal[rack], Samples: pending}); err != nil {
				return err
			}
			st.Batches++
			st.Samples += len(pending)
			pending = pending[:0]
			return nil
		}
		err := r.IterWindow(idx, func(b *wire.Batch) error {
			rack = b.Rack
			for _, s := range b.Samples {
				if !winSeen {
					winFirst, winSeen = s.Time, true
					batchStart = s.Time
				}
				winLast = s.Time
				pending = append(pending, s)
				if len(pending) >= opts.BatchSamples {
					if !opts.Unpaced {
						span := s.Time.Sub(batchStart)
						if span > 0 {
							sleep := time.Duration(float64(span.Std()) / opts.Speedup)
							if opts.MaxGap > 0 && sleep > opts.MaxGap {
								sleep = opts.MaxGap
								st.GapClamps++
							}
							opts.Sleep(sleep)
						}
					}
					batchStart = s.Time
					if err := flush(); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return st, fmt.Errorf("replay: window %d: %w", idx, err)
		}
		if err := flush(); err != nil {
			return st, fmt.Errorf("replay: window %d: %w", idx, err)
		}
		st.Windows++
		if winSeen {
			st.VirtualSpan += winLast.Sub(winFirst)
			ordinal[rack]++
		}
	}
	return st, nil
}
