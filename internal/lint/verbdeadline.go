package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// VerbDeadline proves that the engine and cluster layers can never
// wedge forever on a dead peer. Two rules:
//
//  1. A bare rdma.Endpoint.Call has no deadline: a wedged handler
//     blocks the caller until process exit. Engine/cluster code must
//     use CallTimeout (the fabric abandons the handler at the
//     deadline) — every bare Call is reported.
//
//  2. A fabric-waiting call (an Endpoint verb, or a call that may
//     dispatch — directly, through a method value or through an
//     interface — to a module function whose fabriccost summary is
//     non-empty) sitting on a CFG cycle is an unbounded retry unless
//     the cycle itself is bounded: it advances a retry.Backoff (whose
//     window expires), it can be cancelled through a select clause
//     that leaves the loop (daemon shutdown channels), or every loop
//     forming the cycle is a counted `for init; cond; post` / `range`
//     loop. Data-dependent spins (`for pg != 0 { ...verb... }`) are
//     reported; if the bound really is structural (a page chain
//     walked under an exclusive latch), say so in a //polarvet:allow
//     reason.
//
// Individual one-sided verbs (Read/Write/CAS64/...) fail fast on dead
// nodes, so a straight-line verb needs no deadline; only retry cycles
// and bare Calls can wedge.
type VerbDeadline struct{}

// Name implements Analyzer.
func (VerbDeadline) Name() string { return "verbdeadline" }

// verbDeadlinePkgs are the layers that must stay responsive during
// node failure (§5: an RO promotion cannot wait on the dead RW).
var verbDeadlinePkgs = []string{"internal/engine", "internal/cluster"}

// Check implements Analyzer.
func (VerbDeadline) Check(p *Package) []Finding {
	watched := false
	for _, suffix := range verbDeadlinePkgs {
		if strings.HasSuffix(p.Path, suffix) {
			watched = true
		}
	}
	if !watched {
		return nil
	}

	fc := fabricAnalysisOf(p.Mod)
	var out []Finding
	for _, sc := range funcScopes(p) {
		bindings := methodBindings(p, sc.body)
		isBlocking := func(call *ast.CallExpr) bool {
			if obj := calleeFunc(p, call); obj != nil && isFabricVerb(obj) {
				return true
			}
			for _, t := range fc.idx.resolveCall(p, call, bindings) {
				if len(fc.fnCost[t]) > 0 {
					return true
				}
			}
			return false
		}
		g := buildCFG(sc.body)
		ids, cyclic := g.sccMap()
		boundedCache := map[int]bool{}
		for _, blk := range g.blocks {
			for _, n := range blk.nodes {
				inspectSkipFuncLit(n, func(c ast.Node) bool {
					call, ok := c.(*ast.CallExpr)
					if !ok {
						return true
					}
					obj := calleeFunc(p, call)
					if obj == nil {
						return true
					}
					if methodIs(obj, "internal/rdma", "Endpoint", "Call") {
						out = append(out, Finding{
							Analyzer: "verbdeadline",
							Pos:      p.Fset.Position(call.Pos()),
							Message: fmt.Sprintf("%s: Endpoint.Call has no deadline and can wedge forever on a dead handler; use CallTimeout",
								sc.name),
						})
						return true
					}
					if !isBlocking(call) {
						return true
					}
					id := ids[blk]
					if !cyclic[id] {
						return true
					}
					bounded, seen := boundedCache[id]
					if !seen {
						bounded = sccBounded(p, g, ids, id)
						boundedCache[id] = bounded
					}
					if !bounded {
						out = append(out, Finding{
							Analyzer: "verbdeadline",
							Pos:      p.Fset.Position(call.Pos()),
							Message: fmt.Sprintf("%s: fabric-waiting call %s retried on an unbounded loop; bound it with a retry.Backoff window, a counted loop, or a cancellable select",
								sc.name, callName(call)),
						})
					}
					return true
				})
			}
		}
	}
	return out
}

// sccBounded decides whether the cycle with the given id terminates or
// is cancellable.
func sccBounded(p *Package, g *funcCFG, ids map[*cfgBlock]int, id int) bool {
	scc := g.sccBlocks(ids, id)
	if advancesBackoff(p, scc) {
		return true
	}

	// A select on the cycle with a clause that escapes it (shutdown
	// channel, context cancellation) makes the loop cancellable.
	for _, head := range g.selects {
		if !scc[head] {
			continue
		}
		for _, e := range head.succs {
			if !scc[e.to] && reachesAvoiding(e.to, g.exit, scc) {
				return true
			}
		}
	}

	// If every loop forming the cycle is a counted or range loop, the
	// iteration space is finite.
	counted, loops := 0, 0
	for stmt, head := range g.loopHeads {
		if !scc[head] {
			continue
		}
		loops++
		switch s := stmt.(type) {
		case *ast.RangeStmt:
			counted++
		case *ast.ForStmt:
			if s.Cond != nil && s.Post != nil {
				counted++
			}
		}
	}
	return loops > 0 && counted == loops
}

// callName renders the callee of a call for messages.
func callName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
