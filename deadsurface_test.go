package mburst

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadSurfaceAllowed lists the exported names under internal/ that no
// non-test code reaches and that stay anyway, each with its reason. A key
// with no dot is a whole package. What an allowlisted name reaches is
// kept with it. Every other unreached name fails TestNoDeadExportedSurface:
// delete it, give it a reader, or list it here with a reason.
var deadSurfaceAllowed = map[string]string{
	"pktsample": "the packet-sampling baseline the paper contrasts against (§2), run by BenchmarkBaselinePacketSampling",
	"pktqueue":  "the packet-level port model that validates the fluid simulator (TestFluidModelAgreesWithPacketModel)",

	"workload.Generator.FlowsEnded":     "started − ended = active law (simnet_test)",
	"ecmp.FlowletBalancer.TrackedFlows": "the simnet soak's flowlet-table leak check",

	"collector.ReconnectingClient.DeliveredSamples": clientLedger,
	"collector.ReconnectingClient.DroppedSamples":   clientLedger,
	"collector.ReconnectingClient.SpooledSamples":   clientLedger,

	"collector.Calibrate": "§4.1's minimum-sampling-interval search, run by its example",

	"fault.CrashMix":    "the fault mix the crash soaks generate their schedules from",
	"fault.FlakyDialer": transportInjector,
	"fault.NewGate":     transportInjector,
	"fault.Gate.Up":     transportInjector,
	"fault.Gate.Down":   transportInjector,
	"fault.Gate.Dialer": transportInjector,

	"analysis.GapAwareUtilization": "the chaos soak's reconstruction across collector gaps",
	"analysis.RecoveredBytes":      "the chaos soak's reconstruction across collector gaps",

	"lint.RunPackages":    "the analyzer's entry point for its regression tests and benchmarks",
	"lint.Loader.LoadDir": "the analyzer's entry point for its fixture tests",

	"stats.MarkovAcc.EndSequence": "accumulator API: closes a sequence so no transition spans the seam",
	"asic.Port.QueueBytes":        "the egress backlog the ASIC tests assert on",

	"collector.IngestStats.ServeHTTP": serveHTTP,
	"collector.LiveFigures.ServeHTTP": serveHTTP,
}

const (
	clientLedger      = "the client tier's terms of the conservation ledger, read by the spool and reconnect tests"
	transportInjector = "transport fault injector that only internal/fault's transport_test.go drives"
	serveHTTP         = "called by net/http through http.Handler"
)

// TestNoDeadExportedSurface fails when an exported func, method or type
// declared under internal/ has no non-test reader and is not on
// deadSurfaceAllowed. It also fails when an allowlisted name has gained a
// reader or no longer exists, so the list stays the audit.
//
// A reader is a reference from code that main, init or a package-level
// variable reaches: references made only by unreached declarations do not
// count, so a type that only a dead function's signature names is dead
// with it. A name qualified by an import resolves to that package; a
// method resolves by receiver type and name, and is reached once its type
// is reached and any reached code selects x.Name.
func TestNoDeadExportedSurface(t *testing.T) {
	g := parseSurface(t, ".")
	var unlisted, stale []string
	for _, name := range g.unreached(deadSurfaceAllowed) {
		if _, ok := allowed(name); !ok {
			unlisted = append(unlisted, name)
		}
	}
	found := map[string]bool{}
	for _, name := range g.unreached(nil) {
		if key, ok := allowed(name); ok {
			found[key] = true
		}
	}
	for key := range deadSurfaceAllowed {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	if len(unlisted) > 0 {
		t.Errorf("%d exported names under internal/ have no non-test reader:\n\t%s",
			len(unlisted), strings.Join(unlisted, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d allowlisted names have a reader or are gone; drop them from deadSurfaceAllowed:\n\t%s",
			len(stale), strings.Join(stale, "\n\t"))
	}
}

// allowed returns the deadSurfaceAllowed key that covers name: the name
// itself or its package.
func allowed(name string) (string, bool) {
	if _, ok := deadSurfaceAllowed[name]; ok {
		return name, true
	}
	pkg, _, _ := strings.Cut(name, ".")
	_, ok := deadSurfaceAllowed[pkg]
	return pkg, ok
}

// surfaceNode is one top-level func, method or type.
type surfaceNode struct {
	key     string // "pkg.Name" or "pkg.Type.Method"
	pkg     string // package key, as short returns it
	report  bool   // exported, under internal/, receiver (if any) exported
	recv    string // receiver type's node key, for methods
	method  string // method name, for methods
	idents  []string
	selects []string // names this declaration selects as x.Name
}

type surfaceGraph struct {
	nodes map[string]*surfaceNode // by key
	roots []*surfaceNode
}

// parseSurface parses every non-test .go file under dir, skipping
// testdata and dot directories.
func parseSurface(t *testing.T, dir string) *surfaceGraph {
	t.Helper()
	g := &surfaceGraph{nodes: map[string]*surfaceNode{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		g.addFile(filepath.ToSlash(filepath.Dir(p)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *surfaceGraph) addFile(dir string, f *ast.File) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		rel, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "mburst/")
		if !ok {
			continue
		}
		name := path.Base(rel)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = short(rel)
	}
	pkg := short(dir)
	internal := strings.HasPrefix(dir, "internal/")
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			n := &surfaceNode{key: pkg + "." + d.Name.Name, pkg: pkg, report: internal && d.Name.IsExported()}
			if d.Recv != nil {
				recv := recvType(d.Recv.List[0].Type)
				n.key, n.recv, n.method = pkg+"."+recv+"."+d.Name.Name, pkg+"."+recv, d.Name.Name
				n.report = n.report && ast.IsExported(recv)
			}
			n.refs(d.Type, imports)
			if d.Body != nil {
				n.refs(d.Body, imports)
			}
			if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
				g.roots = append(g.roots, n)
			}
			g.nodes[n.key] = n
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				n := &surfaceNode{pkg: pkg}
				n.refs(spec, imports)
				switch s := spec.(type) {
				case *ast.TypeSpec:
					n.key, n.report = pkg+"."+s.Name.Name, internal && s.Name.IsExported()
					g.nodes[n.key] = n
				case *ast.ValueSpec:
					g.roots = append(g.roots, n)
				}
			}
		}
	}
}

// refs records the identifiers and selectors under root as references
// made by n. A selector through an import names that package's
// declaration; any other selector names a method or field.
func (n *surfaceNode) refs(root ast.Node, imports map[string]string) {
	ast.Inspect(root, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				if pkg, ok := imports[id.Name]; ok {
					n.idents = append(n.idents, pkg+"."+e.Sel.Name)
					return false
				}
			}
			n.selects = append(n.selects, e.Sel.Name)
			n.refs(e.X, imports)
			return false
		case *ast.Ident:
			n.idents = append(n.idents, n.pkg+"."+e.Name)
		}
		return true
	})
}

// unreached returns the reportable nodes that the roots do not reach,
// sorted. The names and packages keyed in extra are roots too.
func (g *surfaceGraph) unreached(extra map[string]string) []string {
	byRecv := map[string][]*surfaceNode{}
	byName := map[string][]*surfaceNode{}
	for _, n := range g.nodes {
		if n.method != "" {
			byRecv[n.recv] = append(byRecv[n.recv], n)
			byName[n.method] = append(byName[n.method], n)
		}
	}
	live := map[*surfaceNode]bool{}
	selected := map[string]bool{}
	var work []*surfaceNode
	mark := func(n *surfaceNode) {
		if n != nil && !live[n] {
			live[n] = true
			work = append(work, n)
		}
	}
	tryMethod := func(m *surfaceNode) {
		if selected[m.method] && live[g.nodes[m.recv]] {
			mark(m)
		}
	}
	for _, r := range g.roots {
		mark(r)
	}
	for _, n := range g.nodes {
		_, name := extra[n.key]
		_, pkg := extra[n.pkg]
		if name || pkg {
			mark(n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, m := range byRecv[n.key] {
			tryMethod(m)
		}
		for _, id := range n.idents {
			mark(g.nodes[id])
		}
		for _, s := range n.selects {
			if !selected[s] {
				selected[s] = true
				for _, m := range byName[s] {
					tryMethod(m)
				}
			}
		}
	}
	var dead []string
	for _, n := range g.nodes {
		if n.report && !live[n] {
			dead = append(dead, n.key)
		}
	}
	sort.Strings(dead)
	return dead
}

// recvType is the receiver's type name with any pointer and type
// parameters stripped.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// short keys a package by its directory, without the internal/ prefix.
func short(dir string) string { return strings.TrimPrefix(dir, "internal/") }
