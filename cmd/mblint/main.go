// Command mblint enforces mburst's determinism, clock, RNG, and telemetry
// invariants (see internal/lint). It is dependency-free: packages are
// discovered with `go list` and type-checked from source, so it runs
// anywhere the go toolchain does.
//
// Usage:
//
//	mblint [-json] [-rules rule1,rule2] [-graph] [-why func] [packages]
//
// Packages default to ./... relative to the working directory.
//
// -graph prints the whole-program call-graph summary the interprocedural
// rules (clockflow, lockorder) analyze. -why prints, for a
// function (bare name, pkg.Func, or fully qualified), the shortest call
// chain by which it reaches a wall-clock or global-rand sink — the
// explanation behind a clockflow finding. With -json the output is a
// report object: findings, per-rule counts, and call-graph size.
//
// Exit code is 0 when clean, 1 when findings were reported, 2 when the
// run itself failed (bad flags, unknown rule, unknown -why function,
// load error).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mburst/internal/lint"
)

// report is the -json output shape, published by CI as
// LINT_findings.json so lint coverage is a tracked artifact.
type report struct {
	Findings   []lint.Diagnostic `json:"findings"`
	RuleCounts map[string]int    `json:"rule_counts"`
	CallGraph  lint.ProgramStats `json:"callgraph"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit a JSON report (findings, rule counts, call-graph size)")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	graph := fs.Bool("graph", false, "print the call-graph summary alongside findings")
	why := fs.String("why", "", "explain how `func` reaches a determinism sink, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mblint [-json] [-rules rule1,rule2] [-graph] [-why func] [packages]\n\nrules:\n")
		for _, a := range lint.NewAnalyzers() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var names []string
	if *rules != "" {
		for _, n := range strings.Split(*rules, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	analyzers, err := lint.SelectAnalyzers(names)
	if err != nil {
		fmt.Fprintln(stderr, "mblint:", err)
		return 2
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "mblint:", err)
		return 2
	}
	loader := lint.NewLoader(dir)
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "mblint:", err)
		return 2
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "mblint: %s: type error: %v\n", pkg.Path, terr)
		}
	}

	if *why != "" {
		prog := lint.BuildProgram(pkgs)
		lines, err := lint.Explain(prog, *why)
		if err != nil {
			fmt.Fprintln(stderr, "mblint:", err)
			return 2
		}
		for _, line := range lines {
			fmt.Fprintln(stdout, line)
		}
		return 0
	}

	diags, prog := lint.RunPackagesProgram(pkgs, analyzers)

	var stats lint.ProgramStats
	if prog != nil {
		stats = prog.Stats()
	}
	if *graph {
		fmt.Fprintf(stdout, "callgraph: %d packages, %d functions, %d static edges, %d dynamic edges\n",
			stats.Packages, stats.Functions, stats.StaticEdges, stats.DynamicEdges)
	}

	if *jsonOut {
		rep := report{
			Findings:   diags,
			RuleCounts: make(map[string]int),
			CallGraph:  stats,
		}
		if rep.Findings == nil {
			rep.Findings = []lint.Diagnostic{}
		}
		for _, d := range diags {
			rep.RuleCounts[d.Rule]++
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "mblint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
