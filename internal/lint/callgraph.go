package lint

// Whole-program call graph. The interprocedural rules (clockflow,
// lockorder) need to reason about what a function reaches through any
// chain of calls, across package boundaries. BuildProgram stitches the
// per-package type information the loader already produced into one
// graph: a node per function declaration, one per package for its
// variable initializers, a static edge per resolved call, and dynamic
// edges from interface method calls to every repo-local concrete type
// whose method set satisfies the interface.
// Everything stays dependency-free on go/ast + go/types.
//
// Determinism: packages are visited in import-path order, files and
// declarations in source order, and interface candidates in (package,
// type-name) order, so node and edge slices — and therefore every
// diagnostic derived from them — are reproducible run to run.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Program is the whole-program view over one lint run's packages.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // sorted by import path

	// Funcs maps each declared function or method object to its node.
	Funcs map[*types.Func]*FuncNode
	// Nodes lists every node in deterministic (package, file, decl)
	// order, each package's initializer node after its declarations.
	Nodes []*FuncNode

	// named lists every package-level named type in the program, in
	// deterministic order; it is the candidate pool for interface
	// method-set resolution.
	named []*types.Named

	staticEdges  int
	dynamicEdges int
}

// FuncNode is one declared function or method, or a package's
// variable initializers. Calls lexically inside function literals are
// attributed to the enclosing declaration (the literal runs with the
// declaration's obligations as far as determinism taint is concerned);
// edges carry InFuncLit so rules that must not look inside literals
// (lockorder's acquisition order) can filter them out.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl // nil for an initializer node
	Pkg  *Package
	// Body is what the node runs: Decl.Body, or for an initializer node
	// one expression statement per package-level variable initializer.
	Body *ast.BlockStmt

	Out []*Edge // calls this function makes, in source order
	In  []*Edge // calls made to this function, in caller order

	// Ext records calls that leave the program (standard library), in
	// source order. Calls through plain func values, func-typed fields
	// and parameters resolve to nothing and are not recorded.
	Ext []ExtCall
}

// Edge is one resolved call site.
type Edge struct {
	Caller, Callee *FuncNode
	Pos            token.Pos
	// Dynamic marks edges resolved through an interface method set: the
	// callee is one possible concrete target, not the only one.
	Dynamic bool
	// InFuncLit marks call sites lexically inside a function literal of
	// the caller.
	InFuncLit bool
}

// ExtCall is one call site whose callee is outside the program.
type ExtCall struct {
	Fn  *types.Func
	Pos token.Pos
}

// ProgramStats summarizes graph size for the CI artifact and -graph.
type ProgramStats struct {
	Packages     int `json:"packages"`
	Functions    int `json:"functions"`
	StaticEdges  int `json:"static_edges"`
	DynamicEdges int `json:"dynamic_edges"`
}

// Stats returns the graph's size counters.
func (prog *Program) Stats() ProgramStats {
	return ProgramStats{
		Packages:     len(prog.Packages),
		Functions:    len(prog.Nodes),
		StaticEdges:  prog.staticEdges,
		DynamicEdges: prog.dynamicEdges,
	}
}

// String renders the fully qualified name, e.g.
// "mburst/internal/wire.(*mbw3Codec).AppendBatch".
func (n *FuncNode) String() string {
	pkg := ""
	if p := n.Obj.Pkg(); p != nil {
		pkg = p.Path() + "."
	}
	return pkg + recvQualifier(n.Obj) + n.Obj.Name()
}

// Short renders the name with the package's short name, e.g.
// "wire.(*mbw3Codec).AppendBatch" — readable in one-line chains.
func (n *FuncNode) Short() string {
	pkg := ""
	if p := n.Obj.Pkg(); p != nil {
		pkg = p.Name() + "."
	}
	return pkg + recvQualifier(n.Obj) + n.Obj.Name()
}

// recvQualifier returns "(T)." or "(*T)." for methods, "" for functions.
func recvQualifier(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	star := ""
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
		star = "*"
	}
	if named, ok := rt.(*types.Named); ok {
		return "(" + star + named.Obj().Name() + ")."
	}
	return ""
}

// extName renders a non-program function for chain output, e.g.
// "time.Now" or "binary.(ByteOrder).Uint32".
func extName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + recvQualifier(fn) + fn.Name()
}

// BuildProgram constructs the call graph over pkgs. The packages must
// come from one Loader so type objects are identical across packages.
func BuildProgram(pkgs []*Package) *Program {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	prog := &Program{
		Packages: sorted,
		Funcs:    make(map[*types.Func]*FuncNode),
	}
	if len(sorted) > 0 {
		prog.Fset = sorted[0].Fset
	}

	// Pass 1: one node per declaration, plus the named-type candidate
	// pool for interface resolution.
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, Body: fd.Body}
				prog.Funcs[obj] = node
				prog.Nodes = append(prog.Nodes, node)
			}
		}
		if node := initNode(pkg); node != nil {
			prog.Nodes = append(prog.Nodes, node)
		}
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				prog.named = append(prog.named, named)
			}
		}
	}

	// Pass 2: edges.
	for _, node := range prog.Nodes {
		prog.addEdges(node)
	}
	return prog
}

// initNode returns the node for pkg's package-level variable
// initializers, named "init" after the function the compiler builds
// from them, or nil when pkg has none. Initializers in _test.go files
// are left out, as the rules leave out test-file declarations.
func initNode(pkg *Package) *FuncNode {
	body := &ast.BlockStmt{}
	for _, f := range pkg.Files {
		if isTestFile(pkg.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					body.List = append(body.List, &ast.ExprStmt{X: v})
				}
			}
		}
	}
	if len(body.List) == 0 {
		return nil
	}
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	return &FuncNode{Obj: types.NewFunc(token.NoPos, pkg.Types, "init", sig), Pkg: pkg, Body: body}
}

// addEdges walks one node's body and records every call.
func (prog *Program) addEdges(node *FuncNode) {
	if node.Body == nil {
		return
	}
	info := node.Pkg.Info
	litDepth := 0
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litDepth++
			ast.Inspect(n.Body, walk)
			litDepth--
			return false
		case *ast.CallExpr:
			prog.addCall(node, info, n, litDepth > 0)
		}
		return true
	}
	ast.Inspect(node.Body, walk)
}

// addCall classifies one call expression into a static edge, dynamic
// edges, or an external call.
func (prog *Program) addCall(caller *FuncNode, info *types.Info, call *ast.CallExpr, inLit bool) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiations: f[T](...) — resolve through the index base.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	pos := call.Pos()

	// Builtins, calls through func values and function literals (whose
	// bodies are walked in place) resolve to no function.
	var fn *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return
	}

	// Interface method call: fan out to every satisfying concrete type.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			prog.addDynamic(caller, fn, pos, inLit)
			return
		}
	}

	if callee, ok := prog.Funcs[fn]; ok {
		e := &Edge{Caller: caller, Callee: callee, Pos: pos, InFuncLit: inLit}
		caller.Out = append(caller.Out, e)
		callee.In = append(callee.In, e)
		prog.staticEdges++
		return
	}
	caller.Ext = append(caller.Ext, ExtCall{Fn: fn, Pos: pos})
}

// addDynamic resolves an interface method call against every program
// named type whose method set satisfies the interface.
func (prog *Program) addDynamic(caller *FuncNode, iface *types.Func, pos token.Pos, inLit bool) {
	recv := iface.Type().(*types.Signature).Recv().Type()
	it, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	seen := make(map[*FuncNode]bool)
	for _, named := range prog.named {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		impl := types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
		if !impl {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, iface.Pkg(), iface.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		callee, ok := prog.Funcs[m]
		if !ok || seen[callee] {
			continue // promoted from outside the program, or duplicate
		}
		seen[callee] = true
		e := &Edge{Caller: caller, Callee: callee, Pos: pos, Dynamic: true, InFuncLit: inLit}
		caller.Out = append(caller.Out, e)
		callee.In = append(callee.In, e)
		prog.dynamicEdges++
	}
}

// LookupFuncs finds nodes by name for mblint -why: an exact qualified
// name ("mburst/internal/wire.(*mbw3Codec).AppendBatch"), a short form
// ("wire.EncodedSize"), or a bare function/method name ("AppendBatch").
func (prog *Program) LookupFuncs(name string) []*FuncNode {
	var out []*FuncNode
	for _, n := range prog.Nodes {
		if n.String() == name || n.Short() == name || n.Obj.Name() == name ||
			strings.TrimSuffix(recvQualifier(n.Obj), ".")+"."+n.Obj.Name() == name {
			out = append(out, n)
		}
	}
	return out
}

// posString renders pos as "file.go:line" for one-line chain output.
func (prog *Program) posString(pos token.Pos) string {
	p := prog.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}
