package mburst

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"mburst/internal/lint"
)

// unsetKnobAllowed lists the exported *Config / *Options fields under
// internal/ that no non-test code sets and that stay anyway, each with its
// reason. Every other unset field fails TestNoUnsetConfigField: delete it,
// make it a constant beside the code that reads it, give it a setter, or
// list it here with a reason.
var unsetKnobAllowed = map[string]string{
	"collector.ServerConfig.Now":               testClock,
	"collector.ReconnectingClientConfig.Sleep": testClock,
	"replay.Options.Sleep":                     testClock,

	"collector.ReconnectingClientConfig.MaxBatch":     agentTuning,
	"collector.ReconnectingClientConfig.BufferLimit":  agentTuning,
	"collector.ReconnectingClientConfig.RetryBackoff": agentTuning,
	"collector.ReconnectingClientConfig.MaxBackoff":   agentTuning,
	"collector.ReconnectingClientConfig.CloseTimeout": agentTuning,

	"collector.AggregatorConfig.QueueDepth": "the aggregator's fan-in queue depth, which aggregator_test.go shrinks to 1 and 2 to force drops",
	"replay.Options.BatchSamples":           "replay's batch size, which the replay tests shrink so a window spans several batches",
	"simnet.Config.ECNThresholdBytes":       "the DCTCP-style marking extension, which only the ECN runs turn on (e.g. TestSignalCoverageWithECNSimulation)",
}

const (
	testClock   = "the tests' injected clock; production leaves the real one"
	agentTuning = "agent tuning mbagent leaves at its default and the tests shrink"
)

// TestNoUnsetConfigField fails when an exported field of an exported
// *Config or *Options struct declared in non-test Go under internal/ has
// no setter in the non-test Go of internal/, cmd/, examples/ and bench/,
// and is not on unsetKnobAllowed. It also fails when an allowlisted field
// has gained a setter or no longer exists, so the list stays the audit.
//
// A setter is a keyed composite-literal element, an assignment or
// increment, an unkeyed struct literal (which sets every field), or a
// field whose address is taken (flag.IntVar(&cfg.N, …)). Each resolves to
// its struct type through go/types, so fields that share a name across
// structs (Rack, Seed, Metrics, Now) are told apart. An assignment inside
// an if whose condition reads the same field is a default, not a setter.
func TestNoUnsetConfigField(t *testing.T) {
	pkgs, err := lint.NewLoader(".").Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	knobs := map[*types.Var]string{}
	for _, p := range pkgs {
		if pkg, ok := strings.CutPrefix(p.Path, "mburst/internal/"); ok {
			configFields(pkg, p.Types, knobs)
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			setters(p.Info, f, set)
		}
	}
	var unset []string
	for v, key := range knobs {
		if !set[v] {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	var unlisted, stale []string
	listed := map[string]bool{}
	for _, key := range unset {
		if _, ok := unsetKnobAllowed[key]; ok {
			listed[key] = true
		} else {
			unlisted = append(unlisted, key)
		}
	}
	for key := range unsetKnobAllowed {
		if !listed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(unlisted) > 0 {
		t.Errorf("%d config fields under internal/ have no non-test setter:\n\t%s",
			len(unlisted), strings.Join(unlisted, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d allowlisted config fields have a setter or are gone; drop them from unsetKnobAllowed:\n\t%s",
			len(stale), strings.Join(stale, "\n\t"))
	}
}

// configFields keys the exported fields of tpkg's exported *Config and
// *Options structs as "pkg.Type.Field".
func configFields(pkg string, tpkg *types.Package, into map[*types.Var]string) {
	scope := tpkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				into[f] = pkg + "." + name + "." + f.Name()
			}
		}
	}
}

// setters marks in set every struct field that f sets.
func setters(info *types.Info, f *ast.File, set map[*types.Var]bool) {
	// guards holds the fields read by the conditions of the ifs that
	// enclose the node being visited.
	var guards []map[*types.Var]bool
	field := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var)
			}
		}
		return nil
	}
	assign := func(e ast.Expr) {
		v := field(e)
		if v == nil {
			return
		}
		for _, g := range guards {
			if g[v] {
				return
			}
		}
		set[v] = true
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if x.Init != nil {
				ast.Inspect(x.Init, visit)
			}
			ast.Inspect(x.Cond, visit)
			read := map[*types.Var]bool{}
			ast.Inspect(x.Cond, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					if v := field(e); v != nil {
						read[v] = true
					}
				}
				return true
			})
			guards = append(guards, read)
			ast.Inspect(x.Body, visit)
			if x.Else != nil {
				ast.Inspect(x.Else, visit)
			}
			guards = guards[:len(guards)-1]
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				assign(lhs)
			}
		case *ast.IncDecStmt:
			assign(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				assign(x.X)
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[x]
			if !ok {
				break
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range x.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					set[st.Field(i)] = true
					continue
				}
				if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					set[v] = true
				}
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}
