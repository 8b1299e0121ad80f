// Package fault is the deterministic fault-injection plane for the
// collection pipeline.
//
// The paper's framework runs in a hostile environment: kernel interrupts
// and contended switch CPUs stall the sampling loop (§3, Table 1), agents
// restart, collectors flap, and disks fill. Its central robustness
// argument is that cumulative counters turn every missed poll into lost
// *resolution*, never lost *data* — throughput between any two successful
// reads is exact. This package makes that argument testable end to end: a
// seeded Schedule describes faults declaratively (kind + activation window
// + parameters), and per-layer injectors apply them to ASIC counter reads,
// the poller's CPU, the agent transport, the collector service, and the
// trace writer.
//
// Determinism is non-negotiable (DESIGN.md §4): schedules are generated
// from internal/rng streams and expressed in window-relative simulated
// time, so a campaign run with a given seed and fault configuration
// reproduces bit-identical samples. Nothing in this package reads the wall
// clock or global randomness.
//
// Fault kinds and the layer each one exercises:
//
//	stuck    ASIC counter reads return the previously latched value
//	         (register bus error / firmware stall); the read does not
//	         reach the hardware, so clear-on-read registers keep
//	         accumulating. Applied by PollerInjector.
//	latency  ASIC access-latency spike: reads take Factor× the modeled
//	         access cost (contended switch CPU ↔ ASIC bus). Applied by
//	         PollerInjector.
//	stall    poller CPU stall: every poll pays an extra Delay (the §3
//	         scheduling-jitter regime), driving Missed up. Applied by
//	         PollerInjector.
//	restart  agent crash/restart boundary: the harness tears the agent
//	         down at the offset and restarts it with the next Epoch.
//	outage   collector outage window: dials fail and live connections
//	         drop. Applied by Gate/FlakyDialer at the harness level.
//	disk     trace-writer disk errors: window-file writes fail. Applied
//	         by FlakyOpener.
//	kill     collector process kill: the collector dies at the offset
//	         with its archive segment open, and must resume from the
//	         checkpoint plus archive tail. Applied by the crash-soak
//	         harness.
//	torn     torn archive write: the collector dies mid-write, leaving a
//	         partial frame on the open segment's tail (Factor is the
//	         persisted fraction). Applied by WriteChaos.
//	shortw   short archive write: the write reports success but persists
//	         only Factor of the payload — the storage stack lied about
//	         durability, surfacing as a resume Shortfall. Applied by
//	         WriteChaos.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"mburst/internal/simclock"
)

// Kind enumerates the injectable fault families.
type Kind int

const (
	// KindStuckReads freezes ASIC counter reads at their last value.
	KindStuckReads Kind = iota
	// KindReadLatency multiplies the poll's counter-access cost.
	KindReadLatency
	// KindCPUStall adds a fixed delay to every poll.
	KindCPUStall
	// KindAgentRestart marks an agent crash/restart boundary.
	KindAgentRestart
	// KindCollectorOutage marks a collector outage window.
	KindCollectorOutage
	// KindDiskError marks a trace-writer disk-error window.
	KindDiskError
	// KindCollectorKill marks a collector process kill (crash + resume).
	KindCollectorKill
	// KindTornWrite tears the collector's next archive write: a crash
	// mid-write leaves a partial frame on the segment tail.
	KindTornWrite
	// KindShortWrite makes the collector's next archive write persist
	// only a prefix while reporting success (the fsync lie).
	KindShortWrite
	numKinds
)

// String names the kind using the schedule grammar's tokens.
func (k Kind) String() string {
	switch k {
	case KindStuckReads:
		return "stuck"
	case KindReadLatency:
		return "latency"
	case KindCPUStall:
		return "stall"
	case KindAgentRestart:
		return "restart"
	case KindCollectorOutage:
		return "outage"
	case KindDiskError:
		return "disk"
	case KindCollectorKill:
		return "kill"
	case KindTornWrite:
		return "torn"
	case KindShortWrite:
		return "shortw"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// parseKind inverts String.
func parseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// Fault is one scheduled fault: a kind active over a window-relative time
// span, plus kind-specific parameters.
type Fault struct {
	Kind Kind
	// At is the activation offset from the start of the measurement
	// window (poller install time), in simulated time.
	At simclock.Duration
	// Dur is how long the fault stays active. Zero means instantaneous
	// (meaningful for restart boundaries).
	Dur simclock.Duration
	// Factor scales the poll's base access cost while a latency fault is
	// active (e.g. 8 = reads are 8× slower). For torn and short writes it
	// is instead the fraction of the payload persisted before the
	// failure, in [0, 1].
	Factor float64
	// Delay is the extra per-poll cost while a stall fault is active.
	Delay simclock.Duration
}

// End returns the offset at which the fault deactivates.
func (f Fault) End() simclock.Duration { return f.At + f.Dur }

// active reports whether the fault covers offset off (half-open [At, End)).
func (f Fault) active(off simclock.Duration) bool {
	return off >= f.At && off < f.End()
}

// String formats the fault in the schedule grammar; ParseSchedule reads
// it back to the same fault.
func (f Fault) String() string {
	s := f.Kind.String() + "@" + exactDur(f.At) + "+" + exactDur(f.Dur)
	switch f.Kind {
	case KindReadLatency, KindTornWrite, KindShortWrite:
		if f.Factor > 0 {
			s += ":x" + strconv.FormatFloat(f.Factor, 'g', -1, 64)
		}
	case KindCPUStall:
		if f.Delay > 0 {
			s += ":" + exactDur(f.Delay)
		}
	}
	return s
}

// exactDur formats d in simclock's figure style ("500µs", "1.5ms") when
// that reads back to d, and to the nanosecond otherwise: the figure style
// keeps three decimals, so it would round 1,234,567 ns to "1.235ms".
func exactDur(d simclock.Duration) string {
	s := d.String()
	if back, err := time.ParseDuration(s); err == nil && simclock.FromStd(back) == d {
		return s
	}
	return d.Std().String()
}

// Validate reports the first problem with the fault.
func (f Fault) Validate() error {
	switch {
	case f.Kind < 0 || f.Kind >= numKinds:
		return fmt.Errorf("fault: bad kind %d", int(f.Kind))
	case f.At < 0:
		return fmt.Errorf("fault: negative offset %v", f.At)
	case f.Dur < 0:
		return fmt.Errorf("fault: negative duration %v", f.Dur)
	case math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0):
		return fmt.Errorf("fault: factor %v is not finite", f.Factor)
	case f.Kind == KindReadLatency && f.Factor < 1:
		return fmt.Errorf("fault: latency factor %v < 1", f.Factor)
	case f.Kind == KindCPUStall && f.Delay <= 0:
		return fmt.Errorf("fault: stall with no delay")
	case (f.Kind == KindTornWrite || f.Kind == KindShortWrite) && (f.Factor < 0 || f.Factor > 1):
		return fmt.Errorf("fault: persisted fraction %v outside [0,1]", f.Factor)
	}
	return nil
}

// Schedule is a deterministic set of faults for one measurement window.
// The zero Schedule injects nothing.
type Schedule struct {
	Faults []Fault
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Faults) == 0 }

// Validate checks every fault.
func (s Schedule) Validate() error {
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault: entry %d: %w", i, err)
		}
	}
	return nil
}

// Active returns the first fault of the given kind covering offset off.
// Schedules are small (a handful of entries), so a linear scan keeps the
// poll path allocation-free and branch-predictable.
func (s Schedule) Active(k Kind, off simclock.Duration) (Fault, bool) {
	for _, f := range s.Faults {
		if f.Kind == k && f.active(off) {
			return f, true
		}
	}
	return Fault{}, false
}

// Of returns the schedule's faults of one kind, in offset order.
func (s Schedule) Of(k Kind) []Fault {
	var out []Fault
	for _, f := range s.Faults {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String formats the schedule in the grammar ParseSchedule accepts.
func (s Schedule) String() string {
	if s.Empty() {
		return "none"
	}
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses the comma-separated schedule grammar:
//
//	schedule := fault ("," fault)*
//	fault    := kind "@" offset "+" dur [":" param]
//	kind     := stuck | latency | stall | restart | outage | disk |
//	            kill | torn | shortw
//	offset   := Go duration (window-relative, e.g. 10ms, 250us)
//	param    := "x" factor (latency: access-cost multiplier;
//	            torn/shortw: persisted fraction) |
//	            extra-delay duration (stall)
//
// Example: "stuck@10ms+5ms,latency@20ms+5ms:x8,stall@30ms+2ms:500us".
// The literal "none" (or an empty string) parses to the empty schedule.
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		f, err := parseFault(strings.TrimSpace(part))
		if err != nil {
			return Schedule{}, err
		}
		s.Faults = append(s.Faults, f)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

func parseFault(part string) (Fault, error) {
	var f Fault
	kindSpan, rest, ok := strings.Cut(part, "@")
	if !ok {
		return f, fmt.Errorf("fault: %q lacks '@offset'", part)
	}
	k, err := parseKind(kindSpan)
	if err != nil {
		return f, err
	}
	f.Kind = k
	span, param, hasParam := strings.Cut(rest, ":")
	offStr, durStr, hasDur := strings.Cut(span, "+")
	f.At, err = parseDur(offStr)
	if err != nil {
		return f, fmt.Errorf("fault: %q: %w", part, err)
	}
	if hasDur {
		f.Dur, err = parseDur(durStr)
		if err != nil {
			return f, fmt.Errorf("fault: %q: %w", part, err)
		}
	}
	if hasParam {
		switch k {
		case KindReadLatency, KindTornWrite, KindShortWrite:
			factor, ok := strings.CutPrefix(param, "x")
			if !ok {
				return f, fmt.Errorf("fault: %q: %s parameter must be xN", part, k)
			}
			f.Factor, err = strconv.ParseFloat(factor, 64)
			if err != nil {
				return f, fmt.Errorf("fault: %q: %w", part, err)
			}
		case KindCPUStall:
			f.Delay, err = parseDur(param)
			if err != nil {
				return f, fmt.Errorf("fault: %q: %w", part, err)
			}
		default:
			return f, fmt.Errorf("fault: %q: kind %s takes no parameter", part, k)
		}
	}
	// Grammar defaults so terse specs stay meaningful.
	if k == KindReadLatency && f.Factor == 0 {
		f.Factor = DefaultLatencyFactor
	}
	if k == KindCPUStall && f.Delay == 0 {
		f.Delay = DefaultStallDelay
	}
	if (k == KindTornWrite || k == KindShortWrite) && f.Factor == 0 {
		f.Factor = DefaultPersistFrac
	}
	return f, nil
}

// parseDur parses a Go duration string into simulated time.
func parseDur(s string) (simclock.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("fault: negative duration %q", s)
	}
	return simclock.FromStd(d), nil
}
