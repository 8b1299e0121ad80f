package lint

// Interprocedural dataflow over the call graph: reverse reachability from
// determinism sinks, for clockflow and mblint -why's chain explanations.
// It is a plain BFS over the deterministic edge order, so the first
// chain found — and therefore the one printed — is a shortest chain and
// stable run to run.

import (
	"fmt"
	"go/types"
	"strings"
)

// maxChainHops bounds printed call chains; deeper chains elide the
// middle rather than flooding a one-line diagnostic.
const maxChainHops = 12

// isClockSink reports whether fn is a wall-clock read/scheduling call.
func isClockSink(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallclockFuncs[fn.Name()] &&
		fn.Type().(*types.Signature).Recv() == nil
}

// isGlobalRandSink reports whether fn draws from the global math/rand
// source. Constructors (New, NewSource, ...) take an explicit seeded
// source and are deterministic given it, so they are not sinks.
func isGlobalRandSink(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return !strings.HasPrefix(fn.Name(), "New")
}

// sinkStep is one node's route to a sink: either a direct external call
// (next == nil) or the first hop of a shortest chain.
type sinkStep struct {
	sink    *types.Func // set when the node calls the sink directly
	sinkPos ExtCall
	next    *Edge // next hop toward the sink (nil when direct)
}

// clockReach computes, for every node that can reach a determinism sink
// through any call chain, a shortest route to one. Nodes in
// internal/rng are exempt: seeded streams are the sanctioned home of
// math/rand use, so chains ending there are not taint.
func clockReach(prog *Program) map[*FuncNode]*sinkStep {
	reach := make(map[*FuncNode]*sinkStep)
	var queue []*FuncNode
	for _, n := range prog.Nodes {
		if strings.HasSuffix(n.Pkg.Path, "internal/rng") {
			continue
		}
		for _, ext := range n.Ext {
			if isClockSink(ext.Fn) || isGlobalRandSink(ext.Fn) {
				reach[n] = &sinkStep{sink: ext.Fn, sinkPos: ext}
				queue = append(queue, n)
				break
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.In {
			if reach[e.Caller] != nil {
				continue
			}
			reach[e.Caller] = &sinkStep{next: e}
			queue = append(queue, e.Caller)
		}
	}
	return reach
}

// sinkOf follows a node's route and returns the terminal sink function.
func sinkOf(reach map[*FuncNode]*sinkStep, n *FuncNode) *types.Func {
	for hops := 0; hops < 1<<16; hops++ {
		step := reach[n]
		if step == nil {
			return nil
		}
		if step.next == nil {
			return step.sink
		}
		n = step.next.Callee
	}
	return nil
}

// sinkTail renders the hops from n (exclusive) down to the sink, each
// as "name (file.go:line)".
func (prog *Program) sinkTail(reach map[*FuncNode]*sinkStep, n *FuncNode) []string {
	var parts []string
	cur := n
	for {
		step := reach[cur]
		if step == nil {
			break
		}
		if step.next == nil {
			parts = append(parts, extName(step.sink)+" ("+prog.posString(step.sinkPos.Pos)+")")
			break
		}
		if len(parts) >= maxChainHops {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, step.next.Callee.Short()+" ("+prog.posString(step.next.Pos)+")")
		cur = step.next.Callee
	}
	return parts
}

// chainString renders the route from n to its sink:
//
//	wire.helper -> core.tick (b.go:3) -> time.Now (b.go:9)
func (prog *Program) chainString(reach map[*FuncNode]*sinkStep, n *FuncNode) string {
	return n.Short() + " -> " + strings.Join(prog.sinkTail(reach, n), " -> ")
}

// chainVia renders the route that starts with the call edge e:
//
//	core.run -> wire.helper (a.go:12) -> time.Now (b.go:9)
func (prog *Program) chainVia(reach map[*FuncNode]*sinkStep, e *Edge) string {
	parts := append(
		[]string{e.Caller.Short(), e.Callee.Short() + " (" + prog.posString(e.Pos) + ")"},
		prog.sinkTail(reach, e.Callee)...)
	return strings.Join(parts, " -> ")
}

// Explain describes, for every function matching name (qualified,
// short, or bare — see LookupFuncs), whether it reaches a determinism
// sink and by what chain. This is mblint -why.
func Explain(prog *Program, name string) ([]string, error) {
	nodes := prog.LookupFuncs(name)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no function named %q in the loaded packages", name)
	}
	reach := clockReach(prog)
	var out []string
	for _, n := range nodes {
		if reach[n] == nil {
			out = append(out, n.String()+": reaches no wall-clock or global-rand sink")
			continue
		}
		out = append(out, n.String()+": "+prog.chainString(reach, n))
	}
	return out, nil
}
