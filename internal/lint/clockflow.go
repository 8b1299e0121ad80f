package lint

import (
	"go/types"
	"strings"
)

// clockDomain names the packages whose behaviour must be a pure function
// of simulated time. The simulation packages (simnet through fault): one
// wall-clock read inside them and the byte-identical campaign guarantee
// (internal/core) is gone. The collection and analysis pipelines
// (collector, analysis, detect, shard): driven by anything but
// simulated/injected time, recorded campaigns stop being byte-identical
// across runs. trace: archive recovery and checkpoint replay must
// rebuild identical state from the same bytes on any machine. (obs is
// deliberately absent: process telemetry like uptime gauges
// legitimately reads the wall clock.)
var clockDomain = []string{
	"simnet", "asic", "eventq", "workload", "sweep", "replay", "core", "fault",
	"collector", "analysis", "detect", "trace", "shard",
}

func inClockDomain(path string) bool {
	for _, seg := range clockDomain {
		if pathHasSegment(path, seg) {
			return true
		}
	}
	return false
}

func newClockflow() *Analyzer {
	a := &Analyzer{
		Name: "clockflow",
		Doc: "Determinism taint: a function in the simulation or collection domain (" +
			strings.Join(clockDomain, ", ") + ") must take time from internal/simclock " +
			"or an injected clock, never from the time package's wall clock, and must " +
			"not reach the wall clock or the global math/rand source through any call " +
			"chain. A direct wall-clock call is flagged where it is made — in a " +
			"function body, a function literal or a package-level variable " +
			"initializer; a chain is flagged at the call site where domain code " +
			"commits to it, with the full chain printed. Referencing time.Now as a " +
			"value (the injectable-default pattern) is allowed. Direct math/rand use " +
			"is globalrand's; internal/rng is exempt (seeded streams are the " +
			"sanctioned randomness source).",
	}
	a.RunProgram = func(p *ProgramPass) {
		prog := p.Prog
		reach := clockReach(prog)
		for _, f := range prog.Nodes {
			path := f.Pkg.Path
			if !inClockDomain(path) || strings.HasSuffix(path, "internal/rng") {
				continue
			}
			if f.Decl != nil && isTestFile(prog.Fset, f.Decl.Pos()) {
				continue
			}
			for _, ext := range f.Ext {
				if isClockSink(ext.Fn) {
					p.Reportf(ext.Pos, "wall-clock %s in %s; take time through simclock or an injected clock", extName(ext.Fn), path)
				}
			}
			// Transitive: flag the edge into the innermost function of the
			// chain — the one that either leaves the domain or contains the
			// sink itself — so each leak is reported exactly once, at the
			// call that commits to it.
			reported := make(map[string]bool)
			for _, e := range f.Out {
				g := e.Callee
				if reach[g] == nil || strings.HasSuffix(g.Pkg.Path, "internal/rng") {
					continue
				}
				if inClockDomain(g.Pkg.Path) && hasReachingOut(reach, g) {
					continue // the finding belongs deeper in the chain
				}
				key := prog.posString(e.Pos)
				if reported[key] {
					continue // one finding per call site across dynamic candidates
				}
				reported[key] = true
				sink := sinkOf(reach, g)
				fix := "take time through simclock or an injected clock"
				if sink != nil && isGlobalRandSink(sink) {
					fix = "derive randomness with rng.New/Split"
				}
				p.Reportf(e.Pos, "%s reaches %s: %s; %s", f.Short(), sinkName(sink), prog.chainVia(reach, e), fix)
			}
		}
	}
	return a
}

// hasReachingOut reports whether n makes any call into the reach set —
// i.e. the chain continues below n and the finding belongs there.
func hasReachingOut(reach map[*FuncNode]*sinkStep, n *FuncNode) bool {
	for _, e := range n.Out {
		if reach[e.Callee] != nil {
			return true
		}
	}
	return false
}

func sinkName(fn *types.Func) string {
	if fn == nil {
		return "a determinism sink"
	}
	return extName(fn)
}
