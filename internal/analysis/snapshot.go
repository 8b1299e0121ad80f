package analysis

import (
	"errors"

	"mburst/internal/simclock"
	"mburst/internal/wire"
)

// Snapshot/Restore give the two accumulators the live-figures tap keeps
// per series (UtilState and BurstSegmenter) an explicit,
// JSON-serializable state surface. internal/collector's SeriesState
// carries one UtilSnap and one SegmenterSnap per series, and the MBC1
// checkpoint codec (collector/mbc1.go) encodes them field by field. A
// restored accumulator continues bit-identically to one that never
// stopped (snapshot_test.go proves this through a JSON round-trip at
// every split point). The other accumulators of this package run within
// one pass over a campaign or a trace and are never checkpointed, so
// they have no state surface.
//
// Latched errors are serialized as their message and restored with
// errors.New: the restored error compares message-identical (what every
// caller in this repository checks), though not errors.Is-identical to
// the original value.

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func errFromString(s string) error {
	if s == "" {
		return nil
	}
	return errors.New(s)
}

// UtilSnap is the serializable state of a UtilState. It carries the line
// rate, so restoring needs no out-of-band configuration.
type UtilSnap struct {
	SpeedBps uint64      `json:"speed_bps"`
	N        int         `json:"n"`
	Prev     wire.Sample `json:"prev"`
	Err      string      `json:"err,omitempty"`
}

// Snapshot captures the converter's state.
func (u *UtilState) Snapshot() UtilSnap {
	return UtilSnap{SpeedBps: u.speedBps, N: u.n, Prev: u.prev, Err: errString(u.err)}
}

// RestoreUtilState rebuilds a converter from a snapshot.
func RestoreUtilState(s UtilSnap) *UtilState {
	return &UtilState{speedBps: s.SpeedBps, n: s.N, prev: s.Prev, err: errFromString(s.Err)}
}

// SegmenterSnap is the serializable state of a BurstSegmenter: its
// configuration plus the live run counters and open burst.
type SegmenterSnap struct {
	HotAbove    float64 `json:"hot_above"`
	ColdBelow   float64 `json:"cold_below,omitempty"`
	ArmAfter    int     `json:"arm_after"`
	DisarmAfter int     `json:"disarm_after"`

	Active   bool          `json:"active"`
	HotRun   int           `json:"hot_run"`
	ColdRun  int           `json:"cold_run"`
	RunStart simclock.Time `json:"run_start"`
	Cur      Burst         `json:"cur"`
	PrevEnd  simclock.Time `json:"prev_end"`
	Closed   bool          `json:"closed"`
}

// Snapshot captures the segmenter's state.
func (g *BurstSegmenter) Snapshot() SegmenterSnap {
	return SegmenterSnap{
		HotAbove: g.hotAbove, ColdBelow: g.coldBelow, ArmAfter: g.arm, DisarmAfter: g.disarm,
		Active: g.active, HotRun: g.hotRun, ColdRun: g.coldRun,
		RunStart: g.runStart, Cur: g.cur, PrevEnd: g.prevEnd, Closed: g.closed,
	}
}

// RestoreBurstSegmenter rebuilds a segmenter from a snapshot. The
// snapshot stores the resolved configuration (defaults already applied
// at construction), so no re-defaulting happens here.
func RestoreBurstSegmenter(s SegmenterSnap) *BurstSegmenter {
	return &BurstSegmenter{
		hotAbove: s.HotAbove, coldBelow: s.ColdBelow, arm: s.ArmAfter, disarm: s.DisarmAfter,
		active: s.Active, hotRun: s.HotRun, coldRun: s.ColdRun,
		runStart: s.RunStart, cur: s.Cur, prevEnd: s.PrevEnd, closed: s.Closed,
	}
}
