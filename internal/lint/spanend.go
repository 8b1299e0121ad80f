package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// spanend enforces internal/ptrace's span lifecycle: every span a
// function Starts must be Ended on all return paths, or published via a
// deferred End. A span that is never Ended is never published — the
// batch silently vanishes from the waterfall, which is the worst kind of
// observability bug (the trace looks complete and is not).
//
// The analysis is lexical and flow-approximate: within one function
// body it flags (a) a Start whose result is discarded, (b) a Start with
// no matching End anywhere, and (c) an explicit return lexically after
// a Start with no End lexically between them (the classic early-return
// leak). A deferred End covers every path; a span
// passed to another function or returned is assumed handed off.
func newSpanend() *Analyzer {
	a := &Analyzer{
		Name: "spanend",
		Doc: "Every ptrace span Start must have a matching End (or deferred End) on " +
			"all return paths; an unended span is silently dropped from the trace " +
			"ring, leaving a hole in the batch's waterfall.",
	}
	a.Run = func(p *Pass) {
		if pathHasSegment(p.Path, "ptrace") {
			return // the tracer implementation manufactures spans freely
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || isTestFile(p.Fset, fd.Pos()) {
					continue
				}
				checkSpanBody(p, fd.Body)
			}
		}
	}
	return a
}

// checkSpanBody analyzes one function body; nested function literals are
// analyzed independently (their returns are not the outer function's).
func checkSpanBody(p *Pass, body *ast.BlockStmt) {
	w := &spanWalk{p: p}
	ast.Walk(w, body)
	w.report()
	for _, fl := range w.nested {
		checkSpanBody(p, fl.Body)
	}
}

// spanStart is one ptrace Start call found in a body.
type spanStart struct {
	pos token.Pos
	// obj is the variable the (possibly Set*-chained) result is bound to;
	// nil when the span was ended inline, discarded, or escaped.
	obj       types.Object
	name      string
	inline    bool // chain terminates in .End(...)
	discarded bool // bare expression statement: result thrown away
}

// spanEnd is one End call on a span variable.
type spanEnd struct {
	obj      types.Object
	pos      token.Pos
	deferred bool
}

// spanWalk is a parent-tracking walker collecting span lifecycle events.
type spanWalk struct {
	p       *Pass
	stack   []ast.Node
	starts  []spanStart
	ends    []spanEnd
	returns []token.Pos
	nested  []*ast.FuncLit
}

func (w *spanWalk) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		w.stack = w.stack[:len(w.stack)-1]
		return nil
	}
	if fl, ok := n.(*ast.FuncLit); ok {
		w.nested = append(w.nested, fl)
		return nil
	}
	w.stack = append(w.stack, n)
	switch node := n.(type) {
	case *ast.ReturnStmt:
		w.returns = append(w.returns, node.Pos())
	case *ast.CallExpr:
		w.handleCall(node)
	}
	return w
}

// isPtraceMethod reports whether call invokes the named method of
// internal/ptrace (with any receiver).
func isPtraceMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Name() == name &&
		pathHasSegment(fn.Pkg().Path(), "ptrace") &&
		fn.Type().(*types.Signature).Recv() != nil
}

func (w *spanWalk) handleCall(call *ast.CallExpr) {
	info := w.p.Info
	if isPtraceMethod(info, call, "End") {
		sel := call.Fun.(*ast.SelectorExpr)
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				deferred := false
				if len(w.stack) >= 2 {
					if d, ok := w.stack[len(w.stack)-2].(*ast.DeferStmt); ok && d.Call == call {
						deferred = true
					}
				}
				w.ends = append(w.ends, spanEnd{obj: obj, pos: call.Pos(), deferred: deferred})
			}
		}
		return
	}
	if !isPtraceMethod(info, call, "Start") {
		return
	}
	st := spanStart{pos: call.Pos()}
	// Climb the method chain: Start(...).SetBatch(...).SetFault(...)... —
	// each link is a SelectorExpr on the previous call wrapped in an outer
	// CallExpr. A chain ending in .End(...) is closed inline.
	i := len(w.stack) - 1 // stack[i] == call
	var cur ast.Node = call
	for i >= 2 {
		sel, ok := w.stack[i-1].(*ast.SelectorExpr)
		if !ok || sel.X != cur {
			break
		}
		outer, ok := w.stack[i-2].(*ast.CallExpr)
		if !ok || outer.Fun != sel {
			break
		}
		if sel.Sel.Name == "End" {
			st.inline = true
			break
		}
		cur = outer
		i -= 2
	}
	if !st.inline {
		switch parent := w.stack[i-1].(type) {
		case *ast.ExprStmt:
			st.discarded = true
		case *ast.AssignStmt:
			for ri, rhs := range parent.Rhs {
				if rhs == cur && ri < len(parent.Lhs) {
					if id, ok := parent.Lhs[ri].(*ast.Ident); ok {
						st.obj = info.ObjectOf(id)
						st.name = id.Name
					}
				}
			}
		case *ast.ValueSpec:
			for ri, v := range parent.Values {
				if v == cur && ri < len(parent.Names) {
					st.obj = info.ObjectOf(parent.Names[ri])
					st.name = parent.Names[ri].Name
				}
			}
		}
		// Any other parent (call argument, return value, composite literal)
		// means the span escapes this function; ownership moved with it.
	}
	w.starts = append(w.starts, st)
}

// report diffs the collected Starts against the Ends and returns.
func (w *spanWalk) report() {
	for _, st := range w.starts {
		switch {
		case st.inline:
			continue
		case st.discarded:
			w.p.Reportf(st.pos, "ptrace span Start result discarded: the span can never End and is dropped from the trace")
			continue
		case st.obj == nil:
			continue // escaped to another owner
		}
		var ends []spanEnd
		deferred := false
		for _, e := range w.ends {
			if e.obj == st.obj {
				ends = append(ends, e)
				deferred = deferred || e.deferred
			}
		}
		if len(ends) == 0 {
			w.p.Reportf(st.pos, "ptrace span %s is started but never Ended in this function", st.name)
			continue
		}
		if deferred {
			continue // a deferred End covers every return path
		}
		for _, r := range w.returns {
			if r < st.pos {
				continue
			}
			covered := false
			for _, e := range ends {
				if e.pos > st.pos && e.pos < r {
					covered = true
					break
				}
			}
			if !covered {
				w.p.Reportf(r, "return leaks ptrace span %s: no End between its Start and this return", st.name)
			}
		}
	}
}
