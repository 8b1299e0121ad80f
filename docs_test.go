package mburst

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mburst/internal/fault"
	"mburst/internal/lint"
)

// The README tables below name things the code defines. Each test fails
// on a row that is missing and on a row that names something the code
// does not have, so the tables cannot drift from the code.

// TestReadmeMetricTable holds "Key metric families" to every mburst_
// metric that non-test code under internal/ and cmd/ registers.
func TestReadmeMetricTable(t *testing.T) {
	compareNames(t, "metric", readmeTable(t, "| Family |", "mburst_"), registeredMetrics(t))
}

// TestReadmeLintRuleTable holds the static-analysis rule table to mblint's
// rule set.
func TestReadmeLintRuleTable(t *testing.T) {
	compareNames(t, "lint rule", readmeTable(t, "| Rule |", ""), lint.RuleNames())
}

// TestReadmeFaultKindTable holds the fault-injection table to every
// fault.Kind the schedule grammar names.
func TestReadmeFaultKindTable(t *testing.T) {
	var kinds []string
	for k := fault.Kind(0); !strings.HasPrefix(k.String(), "Kind("); k++ {
		kinds = append(kinds, k.String())
	}
	compareNames(t, "fault kind", readmeTable(t, "| Kind |", ""), kinds)
}

// backticked matches one `code span` of a table cell.
var backticked = regexp.MustCompile("`([^`]+)`")

// readmeTable returns the code spans in the first column of the README
// table whose header row starts with header, each with prefix prepended.
func readmeTable(t *testing.T, header, prefix string) []string {
	var names []string
	for _, cells := range markdownTable(t, "README.md", header) {
		for _, m := range backticked.FindAllStringSubmatch(cells[0], -1) {
			names = append(names, prefix+m[1])
		}
	}
	return names
}

// markdownTable returns the cells of each body row of file's table whose
// header row starts with header.
func markdownTable(t *testing.T, file, header string) [][]string {
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "\n"+header)
	if !ok {
		t.Fatalf("%s has no table headed %q", file, header)
	}
	var rows [][]string
	for _, line := range strings.Split(table, "\n")[2:] { // past the header and |---| rows
		if !strings.HasPrefix(line, "|") {
			break
		}
		rows = append(rows, tableCells(line))
	}
	return rows
}

// tableCells splits a Markdown table row into its trimmed cells; a cell
// may hold an escaped pipe, "\\|".
func tableCells(line string) []string {
	line = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(line), "|"), "|")
	cells := strings.Split(strings.ReplaceAll(line, `\|`, "\x00"), "|")
	for i, c := range cells {
		cells[i] = strings.ReplaceAll(strings.TrimSpace(c), "\x00", "|")
	}
	return cells
}

// registeredMetrics returns every "mburst_…" literal passed as the name
// of a Counter, Gauge, Histogram, CounterFunc or GaugeFunc call in
// non-test Go under internal/ and cmd/.
func registeredMetrics(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if name, ok := metricName(n); ok {
					names = append(names, name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// metricName reports the metric a registration call names.
func metricName(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram", "CounterFunc", "GaugeFunc":
	default:
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil || !strings.HasPrefix(name, "mburst_") {
		return "", false
	}
	return name, true
}

// compareNames fails on every name the code has and the table leaves
// out, and on every table name the code does not have.
func compareNames(t *testing.T, what string, table, code []string) {
	t.Helper()
	inTable, inCode := set(table), set(code)
	var missing, unknown []string
	for name := range inCode {
		if !inTable[name] {
			missing = append(missing, name)
		}
	}
	for name := range inTable {
		if !inCode[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(unknown)
	if len(missing) > 0 {
		t.Errorf("README's %s table has no row for:\n\t%s", what, strings.Join(missing, "\n\t"))
	}
	if len(unknown) > 0 {
		t.Errorf("README's %s table names what the code does not have:\n\t%s", what, strings.Join(unknown, "\n\t"))
	}
}

func set(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
