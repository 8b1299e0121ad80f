package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mburst/internal/rng"
	"mburst/internal/simclock"
)

// Grammar defaults for under-specified faults, chosen against the paper's
// operating point (25 µs byte-counter polling, §4.1): an 8× access-latency
// spike pushes a 7 µs read past the sampling interval, and a 500 µs stall
// overruns ~20 boundaries per poll — both visibly drive Missed up without
// ending the window.
const (
	DefaultLatencyFactor = 8
	DefaultStallDelay    = 500 * simclock.Microsecond
	// DefaultPersistFrac is the fraction of a torn or short write's
	// payload that reaches the disk before the failure.
	DefaultPersistFrac = 0.5
)

// GenConfig parameterizes randomized schedule generation. Each P* field is
// the per-window probability of injecting one fault of that kind; DurFrac
// sizes the activation window. The zero GenConfig generates the empty
// schedule for every seed.
type GenConfig struct {
	// PStuck / PLatency / PStall / PRestart / POutage / PDisk are the
	// per-window injection probabilities, each in [0, 1].
	PStuck   float64
	PLatency float64
	PStall   float64
	PRestart float64
	POutage  float64
	PDisk    float64
	// PKill / PTorn / PShort are the collector-crash probabilities: a
	// process kill, a kill mid-archive-write (torn tail), and a short
	// write the storage stack reports as durable.
	PKill  float64
	PTorn  float64
	PShort float64
	// DurFrac is each fault's active span as a fraction of the window
	// (default 0.15).
	DurFrac float64
	// LatencyFactor is the read-latency multiplier (default 8).
	LatencyFactor float64
	// StallDelay is the per-poll stall (default 500 µs).
	StallDelay simclock.Duration
	// PersistFrac is the payload fraction a torn or short write persists
	// (default 0.5).
	PersistFrac float64
}

// Default returns an aggressive chaos mix: every poller-visible kind at
// even odds plus occasional restart/outage/disk faults — the soak's
// standard diet.
func Default() GenConfig {
	return GenConfig{
		PStuck:   0.5,
		PLatency: 0.5,
		PStall:   0.5,
		PRestart: 0.25,
		POutage:  0.25,
		PDisk:    0.1,
	}
}

// CrashMix returns the collector-crash soak's diet: frequent process
// kills, regular torn tails, occasional fsync lies — and nothing that
// perturbs the sampling plane, so recovery is measured in isolation.
func CrashMix() GenConfig {
	return GenConfig{
		PKill:  0.9,
		PTorn:  0.5,
		PShort: 0.4,
	}
}

func (c *GenConfig) applyDefaults() {
	if c.DurFrac == 0 {
		c.DurFrac = 0.15
	}
	if c.LatencyFactor == 0 {
		c.LatencyFactor = DefaultLatencyFactor
	}
	if c.StallDelay == 0 {
		c.StallDelay = DefaultStallDelay
	}
	if c.PersistFrac == 0 {
		c.PersistFrac = DefaultPersistFrac
	}
}

// Validate reports the first problem with the configuration.
func (c GenConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"stuck", c.PStuck}, {"latency", c.PLatency}, {"stall", c.PStall},
		{"restart", c.PRestart}, {"outage", c.POutage}, {"disk", c.PDisk},
		{"kill", c.PKill}, {"torn", c.PTorn}, {"shortw", c.PShort},
	} {
		if !unitRange(p.v) {
			return fmt.Errorf("fault: probability %s = %v outside [0,1]", p.name, p.v)
		}
	}
	if !unitRange(c.DurFrac) {
		return fmt.Errorf("fault: DurFrac = %v outside [0,1]", c.DurFrac)
	}
	if math.IsNaN(c.LatencyFactor) || math.IsInf(c.LatencyFactor, 0) {
		return fmt.Errorf("fault: LatencyFactor = %v is not finite", c.LatencyFactor)
	}
	if c.LatencyFactor < 0 || (c.LatencyFactor > 0 && c.LatencyFactor < 1) {
		return fmt.Errorf("fault: LatencyFactor = %v < 1", c.LatencyFactor)
	}
	if c.StallDelay < 0 {
		return fmt.Errorf("fault: StallDelay = %v < 0", c.StallDelay)
	}
	if !unitRange(c.PersistFrac) {
		return fmt.Errorf("fault: PersistFrac = %v outside [0,1]", c.PersistFrac)
	}
	return nil
}

// unitRange reports whether v lies in [0, 1]; NaN does not.
func unitRange(v float64) bool { return v >= 0 && v <= 1 }

// Generate derives a schedule for one window of the given duration from
// src. The result is a pure function of (src state, cfg, window): the same
// seeded stream always yields the same schedule. Each kind consumes a
// fixed number of draws whether or not it fires, so adding a kind to the
// mix never perturbs the placement of the others.
func Generate(src *rng.Source, cfg GenConfig, window simclock.Duration) Schedule {
	cfg.applyDefaults()
	var s Schedule
	if window <= 0 {
		return s
	}
	dur := simclock.Duration(float64(window) * cfg.DurFrac)
	place := func(p float64) (simclock.Duration, bool) {
		// Fixed two draws per kind: the coin and the placement.
		coin := src.Float64()
		at := simclock.Duration(src.Float64() * float64(window-dur))
		return at, coin < p && p > 0
	}
	if at, ok := place(cfg.PStuck); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindStuckReads, At: at, Dur: dur})
	}
	if at, ok := place(cfg.PLatency); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindReadLatency, At: at, Dur: dur, Factor: cfg.LatencyFactor})
	}
	if at, ok := place(cfg.PStall); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindCPUStall, At: at, Dur: dur, Delay: cfg.StallDelay})
	}
	if at, ok := place(cfg.PRestart); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindAgentRestart, At: at})
	}
	if at, ok := place(cfg.POutage); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindCollectorOutage, At: at, Dur: dur})
	}
	if at, ok := place(cfg.PDisk); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindDiskError, At: at, Dur: dur})
	}
	// Crash kinds draw after the legacy six, so enabling them never moves
	// an existing schedule's placements.
	if at, ok := place(cfg.PKill); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindCollectorKill, At: at})
	}
	if at, ok := place(cfg.PTorn); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindTornWrite, At: at, Factor: cfg.PersistFrac})
	}
	if at, ok := place(cfg.PShort); ok {
		s.Faults = append(s.Faults, Fault{Kind: KindShortWrite, At: at, Factor: cfg.PersistFrac})
	}
	return s
}

// ParseGen parses the "rand" flag grammar for randomized schedules:
// "rand" alone selects Default(); "rand:k=v,..." overrides per-kind
// probabilities (stuck, latency, stall, restart, outage, disk, kill,
// torn, shortw) and the shared knobs durfrac, factor, persistfrac, and
// stalldelay (a Go duration).
//
// Example: "rand:stuck=0.8,stall=0.5,durfrac=0.2".
func ParseGen(spec string) (GenConfig, error) {
	cfg := Default()
	rest, ok := strings.CutPrefix(spec, "rand")
	if !ok {
		return cfg, fmt.Errorf("fault: generator spec %q must start with \"rand\"", spec)
	}
	rest = strings.TrimPrefix(rest, ":")
	if rest == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("fault: generator option %q lacks '='", kv)
		}
		if key == "stalldelay" {
			d, err := parseDur(val)
			if err != nil {
				return cfg, err
			}
			cfg.StallDelay = d
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return cfg, fmt.Errorf("fault: generator option %q: %w", kv, err)
		}
		switch key {
		case "stuck":
			cfg.PStuck = f
		case "latency":
			cfg.PLatency = f
		case "stall":
			cfg.PStall = f
		case "restart":
			cfg.PRestart = f
		case "outage":
			cfg.POutage = f
		case "disk":
			cfg.PDisk = f
		case "kill":
			cfg.PKill = f
		case "torn":
			cfg.PTorn = f
		case "shortw":
			cfg.PShort = f
		case "durfrac":
			cfg.DurFrac = f
		case "factor":
			cfg.LatencyFactor = f
		case "persistfrac":
			cfg.PersistFrac = f
		default:
			return cfg, fmt.Errorf("fault: unknown generator option %q", key)
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}
