// Package lint is mburst's repo-specific static-analysis framework. It
// exists because the reproduction's core claims — byte-identical campaign
// output at any worker count and microsecond-faithful counter semantics —
// rest on conventions the compiler cannot check: simulated components must
// take time from internal/simclock rather than the wall clock, randomness
// must flow through internal/rng seeded streams, contexts must be threaded
// rather than re-rooted, and telemetry names must follow the mburst_*
// scheme. mblint (cmd/mblint) machine-checks those invariants on every PR.
//
// The framework is dependency-free: packages are discovered with
// `go list -json`, parsed with go/parser and type-checked with go/types
// against a stdlib source importer, so go.mod keeps zero requires.
//
// Findings can be suppressed with a directive comment on the offending
// line or the line directly above it:
//
//	//lint:ignore rule reason
//
// Directives are themselves checked: an unknown rule name, a missing
// reason, or a stale directive that no longer suppresses anything is a
// finding in its own right (rule "lint", which cannot be suppressed).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one lint rule. Analyzers may keep state across packages
// within a single run (metricname uses this for cross-package uniqueness),
// so a fresh set must be constructed per run via NewAnalyzers.
type Analyzer struct {
	// Name is the rule name used in findings and //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the rule
	// protects.
	Doc string
	// Run inspects one package and reports findings through the pass.
	// Per-package analyzers without cross-package state run concurrently
	// across packages.
	Run func(*Pass)
	// CrossPackage marks a Run that keeps state across packages
	// (metricname's uniqueness map); such analyzers run serially in
	// import-path order.
	CrossPackage bool
	// RunProgram, when set, runs once over the whole-program call graph
	// after every package has been analyzed (the interprocedural rules:
	// clockflow, lockorder). Run is typically nil then.
	RunProgram func(*ProgramPass)
}

// ProgramPass carries the whole program through one interprocedural
// analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// NewAnalyzers returns a fresh instance of every rule, in stable order.
func NewAnalyzers() []*Analyzer {
	return []*Analyzer{
		newGlobalrand(),
		newCtxroot(),
		newMetricname(),
		newErrfmt(),
		newMapiter(),
		newClockflow(),
		newLockorder(),
	}
}

// RuleNames returns the names of every known rule, in stable order.
func RuleNames() []string {
	var names []string
	for _, a := range NewAnalyzers() {
		names = append(names, a.Name)
	}
	return names
}

// SelectAnalyzers filters a fresh analyzer set down to the named rules.
// An unknown name is an error.
func SelectAnalyzers(names []string) ([]*Analyzer, error) {
	all := NewAnalyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (known: %v)", n, RuleNames())
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackages applies analyzers to pkgs, resolves //lint:ignore
// directives, and returns the surviving findings sorted by position.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunPackagesProgram(pkgs, analyzers)
	return diags
}

// RunPackagesProgram is RunPackages plus the call graph it built, for
// callers (mblint -graph/-why, the CI artifact) that want graph stats.
//
// Stateless per-package analyzers run concurrently across packages;
// cross-package analyzers then run serially in import-path order (so
// metric-name uniqueness reports deterministically); interprocedural
// analyzers run last over the whole-program call graph. Findings are
// merged in package order before the final position sort, so the output
// is identical to a fully serial run.
func RunPackagesProgram(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *Program) {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	var parallel, serial, program []*Analyzer
	for _, a := range analyzers {
		switch {
		case a.RunProgram != nil:
			program = append(program, a)
		case a.Run == nil:
		case a.CrossPackage:
			serial = append(serial, a)
		default:
			parallel = append(parallel, a)
		}
	}

	perPkg := make([][]Diagnostic, len(sorted))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sorted) {
		workers = len(sorted)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pkg := sorted[i]
				for _, a := range parallel {
					a.Run(&Pass{
						Analyzer: a,
						Fset:     pkg.Fset,
						Files:    pkg.Files,
						Path:     pkg.Path,
						Pkg:      pkg.Types,
						Info:     pkg.Info,
						diags:    &perPkg[i],
					})
				}
			}
		}()
	}
	for i := range sorted {
		next <- i
	}
	close(next)
	wg.Wait()

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	for _, pkg := range sorted {
		for _, a := range serial {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			})
		}
	}

	var prog *Program
	if len(sorted) > 0 {
		prog = BuildProgram(sorted)
		for _, a := range program {
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, diags: &diags})
		}
	}

	diags = applyIgnores(sorted, analyzers, diags)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags, prog
}
