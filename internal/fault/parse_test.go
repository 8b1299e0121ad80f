package fault

import (
	"math"
	"reflect"
	"testing"

	"mburst/internal/rng"
	"mburst/internal/simclock"
)

// TestParsersRejectNonFinite pins the fix for factors and fractions that
// are not numbers: NaN slipped past every range check (each comparison
// with NaN is false), and an infinite latency factor passed "< 1".
// Schedule.String then dropped a NaN factor, so the spec re-parsed as a
// different schedule.
func TestParsersRejectNonFinite(t *testing.T) {
	for _, spec := range []string{
		"latency@20ms+5ms:xNaN",
		"latency@20ms+5ms:x+Inf",
		"latency@20ms+5ms:xInf",
		"torn@1ms+0s:xNaN",
		"shortw@1ms+0s:x-Inf",
	} {
		if s, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) = %s, want an error", spec, s)
		}
	}
	for _, spec := range []string{
		"rand:stuck=NaN",
		"rand:kill=NaN",
		"rand:factor=Inf",
		"rand:factor=NaN",
		"rand:durfrac=NaN",
		"rand:persistfrac=NaN",
	} {
		if cfg, err := ParseGen(spec); err == nil {
			t.Errorf("ParseGen(%q) = %+v, want an error", spec, cfg)
		}
	}
}

// TestScheduleStringIsExact pins the other half of the round trip:
// offsets the figure-style rendering would round are written to the
// nanosecond.
func TestScheduleStringIsExact(t *testing.T) {
	s := Schedule{Faults: []Fault{{Kind: KindCPUStall, At: 1234567, Dur: simclock.Second + 1, Delay: 1500}}}
	if got, want := s.String(), "stall@1.234567ms+1.000000001s:1.5µs"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	back, err := ParseSchedule(s.String())
	if err != nil || !reflect.DeepEqual(back, s) {
		t.Errorf("ParseSchedule(%q) = %#v, %v; want %#v", s.String(), back.Faults, err, s.Faults)
	}
}

// FuzzParseSchedule: whatever ParseSchedule accepts is a valid schedule
// that its String form reads back to exactly.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"stuck@10ms+5ms,latency@20ms+5ms:x8,stall@30ms+2ms:500us",
		"restart@40ms+0ns,outage@50ms+10ms,disk@60ms+10ms",
		"kill@5ms,torn@10ms+0s:x0.25,shortw@20ms+0s",
		"latency@1ms+1ms,stall@5ms+1ms",
		"stall@1234567ns+1.000000001s:1500ns",
		"latency@20ms+5ms:x1.5e300",
		"none",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSchedule(%q) accepted an invalid schedule: %v", spec, err)
		}
		back, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q).String() = %q does not parse: %v", spec, s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("ParseSchedule(%q) = %#v, but its String %q reads back as %#v", spec, s.Faults, s.String(), back.Faults)
		}
	})
}

// FuzzParseGen: whatever ParseGen accepts has finite fields inside their
// ranges, and generates valid schedules that round-trip through the
// schedule grammar.
func FuzzParseGen(f *testing.F) {
	for _, seed := range []string{
		"rand",
		"rand:stuck=0.8,stall=0.5,durfrac=0.2",
		"rand:kill=0.9,torn=0.5,shortw=0.4,persistfrac=0.3",
		"rand:latency=1,factor=16,stalldelay=1ms",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseGen(spec)
		if err != nil {
			return
		}
		for name, p := range map[string]float64{
			"stuck": cfg.PStuck, "latency": cfg.PLatency, "stall": cfg.PStall,
			"restart": cfg.PRestart, "outage": cfg.POutage, "disk": cfg.PDisk,
			"kill": cfg.PKill, "torn": cfg.PTorn, "shortw": cfg.PShort,
			"durfrac": cfg.DurFrac, "persistfrac": cfg.PersistFrac,
		} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseGen(%q): %s = %v outside [0,1]", spec, name, p)
			}
		}
		if l := cfg.LatencyFactor; math.IsInf(l, 0) || !(l == 0 || l >= 1) {
			t.Fatalf("ParseGen(%q): factor = %v, want 0 or a finite value >= 1", spec, l)
		}
		if cfg.StallDelay < 0 {
			t.Fatalf("ParseGen(%q): stalldelay = %v < 0", spec, cfg.StallDelay)
		}
		s := Generate(rng.New(1), cfg, 100*simclock.Millisecond)
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseGen(%q) generated an invalid schedule %s: %v", spec, s, err)
		}
		if back, err := ParseSchedule(s.String()); err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("generated schedule %s reads back as %#v, %v", s, back.Faults, err)
		}
	})
}
