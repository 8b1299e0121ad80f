package lint

import (
	"strings"
	"testing"
)

// TestIgnoreSemantics runs the suppression fixture: valid directives on
// the preceding or same line silence findings, while unknown rules,
// missing reasons, and stale directives report under the reserved "lint"
// rule (see testdata/ignore/fixture.go for the cases).
func TestIgnoreSemantics(t *testing.T) {
	checkFixture(t, "ignore", "mburst/internal/trace/ignorefix", "ctxroot")
}

// TestIgnoreInactiveRuleNotStale pins that a directive for a known rule
// is only stale-checked when that rule actually ran: running the same
// fixture under errfmt alone must report no stale ctxroot directives
// (and no findings at all — the fixture has no errfmt violations).
func TestIgnoreInactiveRuleNotStale(t *testing.T) {
	diags := runFixture(t, "ignore", "mburst/internal/trace/ignorefix", "errfmt")
	for _, d := range diags {
		if strings.Contains(d.Message, "stale") {
			t.Errorf("directive for inactive rule reported stale: %s", d)
		}
	}
	// Unknown-rule and missing-reason directives are malformed no matter
	// which rules run, so they still report.
	var malformed int
	for _, d := range diags {
		if d.Rule != LintRule {
			t.Errorf("unexpected non-lint finding under errfmt: %s", d)
			continue
		}
		malformed++
	}
	if malformed != 3 {
		t.Errorf("got %d lint directive findings under errfmt, want 3 (two unknown rules + missing reason): %v", malformed, diags)
	}
}

// TestLintRuleNotSuppressible pins that directive problems cannot
// themselves be silenced: "lint" is not a selectable rule name.
func TestLintRuleNotSuppressible(t *testing.T) {
	if _, err := SelectAnalyzers([]string{LintRule}); err == nil {
		t.Error("reserved rule \"lint\" was selectable")
	}
}
