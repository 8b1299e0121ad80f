package lint

import "testing"

// Each rule is checked against a golden fixture package under testdata/.
// Import paths are chosen per fixture because rule applicability keys off
// them (clockflow fires only in clock-domain paths; globalrand everywhere
// but internal/rng).

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

func TestErrfmt(t *testing.T) {
	checkFixture(t, "errfmt", "mburst/internal/trace/errfix", "errfmt")
}

func TestMapiter(t *testing.T) {
	checkFixture(t, "mapiter", "mburst/internal/core/mapfix", "mapiter")
}

func TestClockflow(t *testing.T) {
	checkFixture(t, "clockflow", "mburst/internal/collector/cflowfix", "clockflow")
}

// TestClockflowDirect covers the direct wall-clock calls: in a function
// body, a function literal and a package-level variable initializer.
func TestClockflowDirect(t *testing.T) {
	checkFixture(t, "wallclock", "mburst/internal/simnet/wallfix", "clockflow")
}

// TestWallclockOutsideSimDomain pins the scope of the direct-call check:
// the wallclock fixture is clean under a path outside the clockflow domain.
func TestWallclockOutsideSimDomain(t *testing.T) {
	diags := runFixture(t, "wallclock", "mburst/internal/obsx/wallfix", "clockflow")
	if len(diags) != 0 {
		t.Errorf("clockflow fired outside its domain on the wallclock fixture: %v", diags)
	}
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

// TestLockorderReentry covers the self-edge: a call made while holding a
// lock the callee acquires again, one or two calls down or from a
// function literal.
func TestLockorderReentry(t *testing.T) {
	checkFixture(t, "locklog", "mburst/internal/collector/lockfix", "lockorder")
}

func TestSelectAnalyzersUnknownRule(t *testing.T) {
	if _, err := SelectAnalyzers([]string{"nosuchrule"}); err == nil {
		t.Error("unknown rule selected without error")
	}
}

func TestRuleNamesStable(t *testing.T) {
	want := []string{"globalrand", "ctxroot", "metricname", "errfmt", "mapiter", "clockflow", "lockorder"}
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
