package lint

import (
	"fmt"
	"testing"
)

// TestRegressExactPositions runs every rule over a fixture tree seeding
// at least one violation per rule and asserts the exact file:line:col and
// rule of each finding. This is deliberately brittle: an analyzer
// refactor that shifts a position or stops detecting a rule fails here
// instead of silently weakening CI (ISSUE 3 satellite). Editing
// testdata/regress/fixture.go requires updating this table.
func TestRegressExactPositions(t *testing.T) {
	want := []string{
		"testdata/regress/fixture.go:37:9 lockorder",
		"testdata/regress/fixture.go:42:9 clockflow",
		"testdata/regress/fixture.go:47:9 globalrand",
		"testdata/regress/fixture.go:52:9 ctxroot",
		"testdata/regress/fixture.go:57:14 metricname",
		"testdata/regress/fixture.go:61:25 errfmt",
		"testdata/regress/fixture.go:66:2 mapiter",
		"testdata/regress/fixture.go:75:2 spanend",
		"testdata/regress/fixture.go:85:9 clockflow",
		"testdata/regress/fixture.go:102:2 lockorder",
	}
	diags := runFixture(t, "regress", "mburst/internal/simnet/regressfix")
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d:%d %s", d.File, d.Line, d.Col, d.Rule))
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	// RunPackages sorts by position, so the comparison is order-exact.
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Every rule has a seed.
	rules := make(map[string]bool)
	for _, d := range diags {
		rules[d.Rule] = true
	}
	for _, name := range RuleNames() {
		if !rules[name] {
			t.Errorf("rule %s has no seed in the regress fixture", name)
		}
	}
}
