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
		"testdata/regress/fixture.go:35:9 lockorder",
		"testdata/regress/fixture.go:40:9 clockflow",
		"testdata/regress/fixture.go:45:9 globalrand",
		"testdata/regress/fixture.go:50:9 ctxroot",
		"testdata/regress/fixture.go:55:14 metricname",
		"testdata/regress/fixture.go:59:25 errfmt",
		"testdata/regress/fixture.go:64:2 mapiter",
		"testdata/regress/fixture.go:77:9 clockflow",
		"testdata/regress/fixture.go:94:2 lockorder",
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
