package lint

// lockorder builds a whole-program mutex acquisition-order graph and
// reports its cycles and its self-edges. Two goroutines taking the same
// pair of locks in opposite orders deadlock only under exactly the wrong
// interleaving — the archive-close race class — so the invariant is
// enforced statically: across the program there must exist one global
// order in which locks are acquired.
//
// Lock identity is structural, not per-instance: every sync.Mutex or
// sync.RWMutex field of a named type is one lock ("collector.Server.mu"),
// as is every package-level mutex variable. Within each function the
// rule simulates acquisitions in source order (deferred unlocks hold to
// function exit), and a call made while holding a lock contributes every
// lock the callee may transitively acquire — with the responsible call
// chain attached to the resulting edge.
//
// A self-edge — a function holds L and calls something that acquires L
// — is possible re-entry, which deadlocks on sync.Mutex by itself (the
// lock-then-call-the-logging-helper shape that once hung mbcollectd),
// and is reported at the call with the chain down to the second Lock.
// Because identity is structural, a self-edge through a different
// instance of the same type (a parent calling into a child node) is
// reported too, worded as possible; a second Lock of L directly in the
// same body is taken to be such a second instance and not reported.
// Each function literal is simulated as a body of its own, whose calls
// are also checked against the locks held where it appears; calls in a
// defer are checked against the locks held at the defer. Both count
// toward re-entry only: the cycle graph skips literals and defers,
// leaving those to the race detector.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// lockID names one structural lock.
type lockID struct {
	pkg   string // package path
	typ   string // owning named type, "" for package-level vars
	field string // field or variable name
}

func (id lockID) String() string {
	short := id.pkg
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	if id.typ == "" {
		return short + "." + id.field
	}
	return short + "." + id.typ + "." + id.field
}

func (id lockID) less(other lockID) bool {
	if id.pkg != other.pkg {
		return id.pkg < other.pkg
	}
	if id.typ != other.typ {
		return id.typ < other.typ
	}
	return id.field < other.field
}

// acqEvent is one acquisition-relevant point in a function body.
type acqEvent struct {
	pos     token.Pos
	lock    lockID    // valid for acquire/release
	acquire bool      // false: release
	call    *FuncNode // non-nil: a static call instead of a lock op
	// deferred marks a call in a defer statement: it counts toward
	// re-entry only.
	deferred bool
	// lit, when non-empty, is a function literal's body: its own lock
	// operations and calls, checked for re-entry against the locks it
	// takes itself and those held where the literal appears.
	lit []acqEvent
}

// lockOrderEdge records "from is held while to is acquired" with one
// representative site.
type lockOrderEdge struct {
	from, to lockID
	fn       *FuncNode
	pos      token.Pos
	via      string // call chain when to is acquired inside a callee
}

func newLockorder() *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc: "Whole-program lock-order consistency: sync mutexes (identified " +
			"structurally as Type.field or package-level vars) must be acquired in " +
			"one global order across all call chains. A cycle in the acquisition " +
			"graph — f takes A then B while g takes B then A, directly or through " +
			"calls — is a latent deadlock and is reported with both witness sites. " +
			"So is possible re-entry: holding a lock while calling a function that " +
			"acquires a lock of the same structural identity, through any chain, " +
			"including from a deferred call or a function literal (whose own Lock " +
			"calls count). Identity is by type, so a call into another instance " +
			"of the same type is reported too. Restructure so the callee takes " +
			"the data, not the lock.",
	}
	a.RunProgram = func(p *ProgramPass) {
		prog := p.Prog

		events := make(map[*FuncNode][]acqEvent)
		for _, n := range prog.Nodes {
			if n.Decl == nil || n.Body == nil || isTestFile(prog.Fset, n.Decl.Pos()) {
				continue
			}
			events[n] = acqEvents(n)
		}

		trans := transitiveLocks(prog, events)
		edges := acquisitionEdges(p, events, trans)
		reportLockCycles(p, prog, edges)
	}
	return a
}

// acqEvents extracts this function's lock operations and static calls
// in source order. Lock operations inside a defer are skipped (a
// deferred unlock means the lock is held to function exit); calls there
// are kept, marked deferred. Each function literal becomes one event
// carrying its body's own events, extracted the same way.
func acqEvents(n *FuncNode) []acqEvent {
	info := n.Pkg.Info
	calls := make(map[token.Pos][]*Edge)
	for _, e := range n.Out {
		if !e.Dynamic {
			calls[e.Pos] = append(calls[e.Pos], e)
		}
	}

	var scan func(body ast.Node) []acqEvent
	scan = func(body ast.Node) []acqEvent {
		var evs []acqEvent
		deferred := 0 // depth of enclosing defer statements
		var walk func(ast.Node) bool
		walk = func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.FuncLit:
				if lit := scan(node.Body); len(lit) > 0 {
					evs = append(evs, acqEvent{pos: node.Pos(), lit: lit})
				}
				return false
			case *ast.DeferStmt:
				deferred++
				ast.Inspect(node.Call, walk)
				deferred--
				return false
			case *ast.CallExpr:
				if id, meth, ok := lockOpTarget(info, node, n.Pkg.Path); ok {
					if deferred == 0 {
						evs = append(evs, acqEvent{
							pos:     node.Pos(),
							lock:    id,
							acquire: meth == "Lock" || meth == "RLock",
						})
					}
					return true
				}
				for _, e := range calls[node.Pos()] {
					evs = append(evs, acqEvent{pos: node.Pos(), call: e.Callee, deferred: deferred > 0})
				}
			}
			return true
		}
		ast.Inspect(body, walk)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		return evs
	}
	return scan(n.Body)
}

// lockOpTarget recognizes x.Lock()/Unlock()/RLock()/RUnlock() on a
// sync.Mutex/RWMutex and names the structural lock x refers to. Locks
// it cannot name (locals, interface Lockers) are ignored.
func lockOpTarget(info *types.Info, call *ast.CallExpr, pkgPath string) (lockID, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockID{}, "", false
	}
	meth := sel.Sel.Name
	switch meth {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockID{}, "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockID{}, "", false
	}
	recv := namedOrPointee(info.Types[sel.X].Type)
	if recv == nil || !isSyncLock(recv) {
		return lockID{}, "", false
	}

	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// s.mu, c.state.mu: the lock belongs to the innermost owner type.
		owner := namedOrPointee(info.Types[x.X].Type)
		if owner != nil && owner.Obj().Pkg() != nil {
			return lockID{pkg: owner.Obj().Pkg().Path(), typ: owner.Obj().Name(), field: x.Sel.Name}, meth, true
		}
		// pkg.muVar
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && isPackageLevel(v) {
			return lockID{pkg: v.Pkg().Path(), field: v.Name()}, meth, true
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && isPackageLevel(v) {
			return lockID{pkg: v.Pkg().Path(), field: v.Name()}, meth, true
		}
	}
	return lockID{}, "", false
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// lockTrace remembers how a transitive acquisition happens: either a
// direct lock at pos, or through the first call edge of a chain.
type lockTrace struct {
	direct token.Pos
	via    *Edge
}

// transitiveLocks computes, for every function, the set of structural
// locks it may acquire directly or through static calls, with one
// representative route each.
func transitiveLocks(prog *Program, events map[*FuncNode][]acqEvent) map[*FuncNode]map[lockID]lockTrace {
	trans := make(map[*FuncNode]map[lockID]lockTrace, len(prog.Nodes))
	for _, n := range prog.Nodes {
		set := make(map[lockID]lockTrace)
		for _, ev := range events[n] {
			if ev.call == nil && ev.acquire {
				if _, ok := set[ev.lock]; !ok {
					set[ev.lock] = lockTrace{direct: ev.pos}
				}
			}
		}
		trans[n] = set
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes {
			for _, e := range n.Out {
				if e.InFuncLit || e.Dynamic {
					continue
				}
				for id := range trans[e.Callee] {
					if _, ok := trans[n][id]; !ok {
						trans[n][id] = lockTrace{via: e}
						changed = true
					}
				}
			}
		}
	}
	return trans
}

// lockChain renders the route by which n acquires id, for edge messages.
func lockChain(prog *Program, trans map[*FuncNode]map[lockID]lockTrace, n *FuncNode, id lockID) string {
	var parts []string
	cur := n
	for hops := 0; hops < maxChainHops; hops++ {
		tr, ok := trans[cur][id]
		if !ok {
			break
		}
		if tr.via == nil {
			parts = append(parts, id.String()+".Lock ("+prog.posString(tr.direct)+")")
			return strings.Join(parts, " -> ")
		}
		parts = append(parts, tr.via.Callee.Short()+" ("+prog.posString(tr.via.Pos)+")")
		cur = tr.via.Callee
	}
	return strings.Join(append(parts, "..."), " -> ")
}

// acquisitionEdges simulates each function's events, reports every
// possible re-entry (a call made while holding a lock of the same
// structural identity as one the callee acquires), and returns one
// representative edge per ordered pair of distinct locks.
func acquisitionEdges(p *ProgramPass, events map[*FuncNode][]acqEvent, trans map[*FuncNode]map[lockID]lockTrace) map[[2]lockID]*lockOrderEdge {
	prog := p.Prog
	reps := make(map[[2]lockID]*lockOrderEdge)
	add := func(from, to lockID, fn *FuncNode, pos token.Pos, via string) {
		if from == to {
			return // a second Lock in the same body: two instances of one type, not modelled
		}
		key := [2]lockID{from, to}
		if _, ok := reps[key]; !ok {
			reps[key] = &lockOrderEdge{from: from, to: to, fn: fn, pos: pos, via: via}
		}
	}

	// simulate walks one body's events. outer holds the locks held where
	// a function literal appears; they count toward re-entry only, and
	// so do the literal's own locks (placed is false inside literals).
	var simulate func(n *FuncNode, evs []acqEvent, outer []lockID, placed bool)
	simulate = func(n *FuncNode, evs []acqEvent, outer []lockID, placed bool) {
		var held []lockID // in acquisition order
		for _, ev := range evs {
			switch {
			case len(ev.lit) > 0:
				simulate(n, ev.lit, append(append([]lockID(nil), outer...), held...), false)
			case ev.call != nil:
				if len(held)+len(outer) == 0 {
					continue
				}
				ids := make([]lockID, 0, len(trans[ev.call]))
				for id := range trans[ev.call] {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i].less(ids[j]) })
				for _, id := range ids {
					via := ev.call.Short() + " -> " + lockChain(prog, trans, ev.call, id)
					if slices.Contains(held, id) || slices.Contains(outer, id) {
						p.Reportf(ev.pos, "possible re-entry on %s (same lock type): %s holds it and calls %s, which deadlocks if both are one instance: release it before the call or pass the callee the data",
							id, n.Short(), via)
					}
					if placed && !ev.deferred {
						for _, h := range held {
							add(h, id, n, ev.pos, " via "+via)
						}
					}
				}
			case ev.acquire:
				if placed {
					for _, h := range held {
						add(h, ev.lock, n, ev.pos, "")
					}
				}
				if !slices.Contains(held, ev.lock) {
					held = append(held, ev.lock)
				}
			default: // release
				if i := slices.Index(held, ev.lock); i >= 0 {
					held = slices.Delete(held, i, i+1)
				}
			}
		}
	}
	for _, n := range prog.Nodes {
		if evs := events[n]; len(evs) > 0 {
			simulate(n, evs, nil, true)
		}
	}
	return reps
}

// reportLockCycles finds strongly connected components of the
// acquisition graph and reports each multi-lock component once, at its
// earliest witness site, with every contributing edge described.
func reportLockCycles(p *ProgramPass, prog *Program, reps map[[2]lockID]*lockOrderEdge) {
	// Deterministic node and adjacency order.
	nodeSet := make(map[lockID]bool)
	for key := range reps {
		nodeSet[key[0]] = true
		nodeSet[key[1]] = true
	}
	nodes := make([]lockID, 0, len(nodeSet))
	for id := range nodeSet {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].less(nodes[j]) })
	succ := make(map[lockID][]lockID)
	for _, from := range nodes {
		for _, to := range nodes {
			if _, ok := reps[[2]lockID{from, to}]; ok {
				succ[from] = append(succ[from], to)
			}
		}
	}

	for _, scc := range tarjanSCC(nodes, succ) {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[lockID]bool, len(scc))
		for _, id := range scc {
			inSCC[id] = true
		}
		var cycleEdges []*lockOrderEdge
		for _, from := range scc {
			for _, to := range succ[from] {
				if inSCC[to] {
					cycleEdges = append(cycleEdges, reps[[2]lockID{from, to}])
				}
			}
		}
		anchor := cycleEdges[0]
		var locks, sites []string
		for _, id := range scc {
			locks = append(locks, id.String())
		}
		for _, e := range cycleEdges {
			if e.pos < anchor.pos {
				anchor = e
			}
			sites = append(sites, e.from.String()+" -> "+e.to.String()+" in "+e.fn.Short()+" ("+prog.posString(e.pos)+")"+e.via)
		}
		p.Reportf(anchor.pos, "lock-order cycle among %s: %s; acquire these locks in one global order",
			strings.Join(locks, ", "), strings.Join(sites, "; "))
	}
}

// tarjanSCC returns strongly connected components in deterministic
// order (iterative Tarjan over the sorted node list).
func tarjanSCC(nodes []lockID, succ map[lockID][]lockID) [][]lockID {
	index := make(map[lockID]int)
	low := make(map[lockID]int)
	onStack := make(map[lockID]bool)
	var stack []lockID
	var sccs [][]lockID
	next := 0

	var strong func(v lockID)
	strong = func(v lockID) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i].less(scc[j]) })
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return sccs
}
