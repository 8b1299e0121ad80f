package lint

// A tiny analysistest-alike: fixture packages live under testdata/ (where
// the go tool does not look), each directory is one package, and every
// line that should produce a finding carries a comment of the form
//
//	// want `regexp` `another regexp`
//
// with one pattern per expected finding on that line. Patterns may be
// back-quoted or double-quoted. The runner loads the fixture with the
// real loader (so mburst/internal/obs etc. resolve to the live tree),
// runs the analyzers under test through the full pipeline — including
// //lint:ignore resolution — and requires an exact match: every finding
// matched by a want on its line, every want consumed by a finding.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var sharedLoader *Loader

// loaderForTest returns a process-wide loader so the standard library is
// type-checked from source once, not once per test.
func loaderForTest(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		sharedLoader = NewLoader(".")
	}
	return sharedLoader
}

// runFixture lints one testdata package under the named rules (all rules
// when empty). importPath is chosen by the test: path-keyed rules
// (clockflow's domain) key off it.
func runFixture(t *testing.T, dir, importPath string, rules ...string) []Diagnostic {
	t.Helper()
	pkg, err := loaderForTest(t).LoadDir(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s has type errors: %v", dir, terr)
	}
	analyzers, err := SelectAnalyzers(rules)
	if err != nil {
		t.Fatal(err)
	}
	return RunPackages([]*Package{pkg}, analyzers)
}

// checkFixture runs the fixture and diffs findings against its // want
// comments.
func checkFixture(t *testing.T, dir, importPath string, rules ...string) {
	t.Helper()
	diags := runFixture(t, dir, importPath, rules...)
	wants := collectWants(t, filepath.Join("testdata", dir))

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: want %q matched no finding", key, w.re)
			}
		}
	}
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantPattern = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// collectWants scans fixture sources for // want comments.
func collectWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]*want)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, after, found := strings.Cut(line, "// want ")
			if !found {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, i+1)
			for _, m := range wantPattern.FindAllStringSubmatch(after, -1) {
				pat := m[1]
				if pat == "" && m[2] != "" {
					if unq, err := strconv.Unquote(`"` + m[2] + `"`); err == nil {
						pat = unq
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
				}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	return wants
}
