package fault

import (
	"mburst/internal/obs"
	"mburst/internal/simclock"
)

// Metrics instruments the fault plane. Every field is nil-safe: the zero
// Metrics disables telemetry at the cost of one predicted branch per
// update, matching the collector's instrument convention.
type Metrics struct {
	// Scheduled counts faults placed into campaign schedules.
	Scheduled *obs.Counter
	// StuckPolls counts polls whose counter reads were frozen.
	StuckPolls *obs.Counter
	// DelayNanos accumulates simulated poll delay injected by latency and
	// stall faults.
	DelayNanos *obs.Counter
	// DialErrors counts injected transport dial failures.
	DialErrors *obs.Counter
	// WriteErrors counts injected transport write failures.
	WriteErrors *obs.Counter
	// TornWrites counts archive writes torn mid-frame (crash mid-write).
	TornWrites *obs.Counter
	// ShortWrites counts archive writes that persisted only a prefix
	// while reporting success.
	ShortWrites *obs.Counter
}

// NewMetrics registers the fault-plane instrument set on reg.
func NewMetrics(reg *obs.Registry, labels ...obs.Label) *Metrics {
	return &Metrics{
		Scheduled: reg.Counter("mburst_fault_scheduled_total",
			"Faults placed into campaign fault schedules.", labels...),
		StuckPolls: reg.Counter("mburst_fault_stuck_polls_total",
			"Polls whose counter reads returned stale values.", labels...),
		DelayNanos: reg.Counter("mburst_fault_poll_delay_ns_total",
			"Simulated nanoseconds of injected poll delay (latency spikes and CPU stalls).", labels...),
		DialErrors: reg.Counter("mburst_fault_dial_errors_total",
			"Injected collector dial failures.", labels...),
		WriteErrors: reg.Counter("mburst_fault_write_errors_total",
			"Injected transport write failures.", labels...),
		TornWrites: reg.Counter("mburst_fault_torn_writes_total",
			"Injected archive writes torn mid-frame.", labels...),
		ShortWrites: reg.Counter("mburst_fault_short_writes_total",
			"Injected archive writes that silently persisted a prefix.", labels...),
	}
}

// PollerInjector applies a schedule's measurement-plane faults to one
// sampling loop. It implements collector.PollFault; offsets are relative
// to the poller's install time, matching the schedule's window-relative
// convention. The injector consumes no randomness on the poll path — the
// schedule is the sole source of fault timing — so an empty schedule
// leaves the poller's sample stream bit-identical to an uninjected run.
//
// A PollerInjector is used by a single sampling loop; the shared Metrics
// counters it feeds are atomic.
type PollerInjector struct {
	stuck   []Fault
	latency []Fault
	stall   []Fault
	m       Metrics
}

// NewPollerInjector builds an injector for the poller-visible kinds of s.
// m may be nil.
func NewPollerInjector(s Schedule, m *Metrics) *PollerInjector {
	inj := &PollerInjector{
		stuck:   s.Of(KindStuckReads),
		latency: s.Of(KindReadLatency),
		stall:   s.Of(KindCPUStall),
	}
	if m != nil {
		inj.m = *m
	}
	return inj
}

// firstActive returns the first fault covering off.
func firstActive(faults []Fault, off simclock.Duration) (Fault, bool) {
	for _, f := range faults {
		if f.active(off) {
			return f, true
		}
	}
	return Fault{}, false
}

// PollDelay implements collector.PollFault: the extra cost of a poll
// starting at window offset off, given the loop's fault-free base cost.
func (i *PollerInjector) PollDelay(off, base simclock.Duration) simclock.Duration {
	var extra simclock.Duration
	if f, ok := firstActive(i.latency, off); ok && f.Factor > 1 {
		extra += simclock.Duration(float64(base) * (f.Factor - 1))
	}
	if f, ok := firstActive(i.stall, off); ok {
		extra += f.Delay
	}
	if extra > 0 {
		i.m.DelayNanos.Add(uint64(extra))
	}
	return extra
}

// ReadStuck implements collector.PollFault: whether counter reads at
// window offset off return the previously latched values.
func (i *PollerInjector) ReadStuck(off simclock.Duration) bool {
	if _, ok := firstActive(i.stuck, off); ok {
		i.m.StuckPolls.Inc()
		return true
	}
	return false
}
