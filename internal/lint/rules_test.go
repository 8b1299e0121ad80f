package lint

import "testing"

// Each rule is checked against a golden fixture package under testdata/.
// Import paths are chosen per fixture because rule applicability keys off
// them (wallclock fires only in sim-domain paths; globalrand everywhere
// but internal/rng).

func TestWallclock(t *testing.T) {
	checkFixture(t, "wallclock", "mburst/internal/simnet/wallfix", "wallclock")
}

// TestWallclockOutsideSimDomain pins the rule's scope: the identical
// source is clean under a non-simulation import path.
func TestWallclockOutsideSimDomain(t *testing.T) {
	diags := runFixture(t, "wallclock", "mburst/internal/collector/wallfix", "wallclock")
	if len(diags) != 0 {
		t.Errorf("wallclock fired outside the sim domain: %v", diags)
	}
}

func TestGlobalrand(t *testing.T) {
	checkFixture(t, "globalrand", "mburst/internal/workload/randfix", "globalrand")
}

// TestGlobalrandInsideRng pins the one exemption: internal/rng itself.
func TestGlobalrandInsideRng(t *testing.T) {
	diags := runFixture(t, "globalrand", "mburst/internal/rng", "globalrand")
	if len(diags) != 0 {
		t.Errorf("globalrand fired inside internal/rng: %v", diags)
	}
}

func TestCtxroot(t *testing.T) {
	checkFixture(t, "ctxroot", "mburst/internal/trace/ctxfix", "ctxroot")
}

func TestMetricname(t *testing.T) {
	checkFixture(t, "metricname", "mburst/internal/collector/metricfix", "metricname")
}

func TestLocklog(t *testing.T) {
	checkFixture(t, "locklog", "mburst/internal/collector/lockfix", "locklog")
}

func TestErrfmt(t *testing.T) {
	checkFixture(t, "errfmt", "mburst/internal/trace/errfix", "errfmt")
}

func TestMapiter(t *testing.T) {
	checkFixture(t, "mapiter", "mburst/internal/core/mapfix", "mapiter")
}

func TestSpanend(t *testing.T) {
	checkFixture(t, "spanend", "mburst/internal/collector/spanfix", "spanend")
}

// TestSpanendInsidePtrace pins the exemption: the tracer package itself.
// (The fixture's ignore directive goes stale when the rule is off, so only
// spanend findings count.)
func TestSpanendInsidePtrace(t *testing.T) {
	for _, d := range runFixture(t, "spanend", "mburst/internal/ptrace/spanfix", "spanend") {
		if d.Rule == "spanend" {
			t.Errorf("spanend fired inside internal/ptrace: %v", d)
		}
	}
}

func TestClockflow(t *testing.T) {
	checkFixture(t, "clockflow", "mburst/internal/collector/cflowfix", "clockflow")
}

// TestClockflowOutsideDomain pins the rule's scope: the identical source
// under a path outside the clockflow domain is clean.
func TestClockflowOutsideDomain(t *testing.T) {
	diags := runFixture(t, "clockflow", "mburst/internal/obsx/cflowfix", "clockflow")
	if len(diags) != 0 {
		t.Errorf("clockflow fired outside its domain: %v", diags)
	}
}

func TestLockorder(t *testing.T) {
	checkFixture(t, "lockorder", "mburst/internal/collector/lofix", "lockorder")
}

func TestSelectAnalyzersUnknownRule(t *testing.T) {
	if _, err := SelectAnalyzers([]string{"nosuchrule"}); err == nil {
		t.Error("unknown rule selected without error")
	}
}

func TestRuleNamesStable(t *testing.T) {
	want := []string{"wallclock", "globalrand", "ctxroot", "metricname", "locklog", "errfmt", "mapiter", "spanend", "clockflow", "lockorder"}
	got := RuleNames()
	if len(got) != len(want) {
		t.Fatalf("RuleNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rule %d = %q, want %q", i, got[i], want[i])
		}
	}
}
