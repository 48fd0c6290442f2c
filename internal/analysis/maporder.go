package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder (deterministic-iteration) flags `range` over a map in the
// packages that must behave identically under one seed, when the loop
// body lets the iteration order escape: it sends overlay/network traffic,
// appends to a slice declared outside the loop, draws from a seeded
// *math/rand.Rand, or adds to a floating-point variable declared outside
// the loop (float sums round, so their last bits follow the order;
// integer sums pass). Order-dependent effects from map ranges are
// exactly the class of bug the PR-7 chaos harness caught at runtime in
// ownerAntiEntropy and pastry.KnownNodes: identically-seeded runs
// desynchronized because Go randomizes map iteration.
//
// The sanctioned fix is also recognized: an append whose slice is later
// passed to sort.* or slices.Sort* in the same function (the
// collect-keys-then-sort idiom) is deterministic and not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags map iteration in deterministic packages (core, pastry, chaos, eventsim, honeycomb) " +
		"whose loop body sends messages, appends to an escaping slice without a subsequent sort, " +
		"feeds a seeded RNG, or accumulates a float declared outside it — map order would " +
		"desynchronize identically-seeded runs",
	Run: runMapOrder,
}

// deterministicPkgs are the packages whose whole-run behavior must be a
// pure function of the seed.
var deterministicPkgs = map[string]bool{
	"corona/internal/core":      true,
	"corona/internal/pastry":    true,
	"corona/internal/chaos":     true,
	"corona/internal/eventsim":  true,
	"corona/internal/honeycomb": true,
}

// sendLikeNames are method names that transmit messages; calling one per
// map-ordered iteration makes wire traffic order nondeterministic.
var sendLikeNames = map[string]bool{
	"Send": true, "send": true, "SendTo": true, "SendBatch": true,
	"Route": true, "route": true, "Deliver": true, "deliver": true,
	"Broadcast": true, "broadcast": true, "Publish": true, "publish": true,
	"Gossip": true, "gossip": true,
}

func runMapOrder(pass *Pass) error {
	if !deterministicPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.Info.Types[rs.X].Type; t == nil || !isMap(t) {
				return true
			}
			checkMapRangeBody(pass, file, rs)
			return true
		})
	}
	return nil
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRangeBody reports order-escaping effects inside one map range.
func checkMapRangeBody(pass *Pass, file *ast.File, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over map %s: send order follows map iteration order; iterate a sorted snapshot instead", exprString(rs.X))
		case *ast.CallExpr:
			checkMapRangeCall(pass, file, rs, n)
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
				checkFloatAccum(pass, rs, n)
			}
		}
		return true
	})
}

// checkFloatAccum reports `x += e` / `x -= e` on a floating-point x whose
// variable outlives one iteration of the map range.
func checkFloatAccum(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt) {
	lhs := as.Lhs[0]
	t := pass.Info.TypeOf(lhs)
	if t == nil {
		return
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	if base := baseIdent(lhs); base != nil && declaredIn(pass, base, rs.Body) {
		return
	}
	pass.Reportf(as.Pos(), "floating-point %s %s inside range over map %s: the rounded sum follows map iteration order; accumulate over a sorted snapshot instead", exprString(lhs), as.Tok, exprString(rs.X))
}

// declaredIn reports whether id's object is declared inside node.
func declaredIn(pass *Pass, id *ast.Ident, node ast.Node) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

func checkMapRangeCall(pass *Pass, file *ast.File, rs *ast.RangeStmt, call *ast.CallExpr) {
	// Seeded RNG: any method call on a *math/rand.Rand (or rand/v2).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if recv := pass.Info.Types[sel.X].Type; recv != nil && isSeededRand(recv) {
			pass.Reportf(call.Pos(), "seeded RNG draw inside range over map %s: the draw sequence follows map iteration order; iterate a sorted snapshot instead", exprString(rs.X))
			return
		}
		if sendLikeNames[sel.Sel.Name] {
			if _, isMethod := pass.Info.Selections[sel]; isMethod || isPkgFunc(pass, sel) {
				pass.Reportf(call.Pos(), "%s call inside range over map %s: message order follows map iteration order; collect targets, sort, then send", sel.Sel.Name, exprString(rs.X))
				return
			}
		}
	} else if id, ok := call.Fun.(*ast.Ident); ok && sendLikeNames[id.Name] {
		if obj, ok := pass.Info.Uses[id].(*types.Func); ok && obj.Pkg() == pass.Pkg {
			pass.Reportf(call.Pos(), "%s call inside range over map %s: message order follows map iteration order; collect targets, sort, then send", id.Name, exprString(rs.X))
			return
		}
	}

	// append to a slice declared outside the loop, not sorted afterwards.
	if isBuiltinAppend(pass, call) && len(call.Args) > 0 {
		target := rootIdent(call.Args[0])
		if target == nil {
			return
		}
		obj := pass.Info.Uses[target]
		if obj == nil {
			obj = pass.Info.Defs[target]
		}
		if obj == nil {
			return
		}
		// Declared inside the loop body: the slice dies with the
		// iteration, order cannot escape.
		if declaredIn(pass, target, rs.Body) {
			return
		}
		// The base variable of a composite target (h in h.subs) declared
		// inside the loop body: each iteration appends to its own value,
		// so THIS map's order cannot shape the element order — only inner
		// ranges can, and those are checked in their own right.
		if base := baseIdent(call.Args[0]); base != nil && base != target && declaredIn(pass, base, rs.Body) {
			return
		}
		if sortedAfter(pass, file, rs, obj) {
			return
		}
		pass.Reportf(call.Pos(), "append to %s inside range over map %s: element order follows map iteration order; sort %s afterwards or iterate a sorted snapshot", target.Name, exprString(rs.X), target.Name)
	}
}

// isBuiltinAppend reports whether call is the built-in append.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isSeededRand reports whether t is *math/rand.Rand or *math/rand/v2.Rand.
func isSeededRand(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		if named, ok := t.(*types.Named); ok {
			return isRandNamed(named)
		}
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && isRandNamed(named)
}

func isRandNamed(named *types.Named) bool {
	obj := named.Obj()
	if obj.Name() != "Rand" || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "math/rand" || p == "math/rand/v2"
}

// isPkgFunc reports whether sel is a package-level function selection
// (pkg.Func) rather than a field access.
func isPkgFunc(pass *Pass, sel *ast.SelectorExpr) bool {
	_, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok
}

// sortedAfter reports whether obj (the appended-to slice) is passed to a
// sort.*/slices.Sort* call positioned after the range statement in the
// same file — the collect-then-sort idiom.
func sortedAfter(pass *Pass, file *ast.File, rs *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		path := pn.Imported().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil && pass.Info.Uses[id] == obj {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// rootIdent returns the identifier whose storage expressions like x,
// x[i], x.f, *x reach: x, or the field f for a selector.
func rootIdent(e ast.Expr) *ast.Ident { return chainIdent(e, true) }

// baseIdent returns the leftmost identifier of expressions like x.f[i]
// — the variable the whole chain hangs off — unlike rootIdent, which
// resolves x.f to the field f.
func baseIdent(e ast.Expr) *ast.Ident { return chainIdent(e, false) }

func chainIdent(e ast.Expr, field bool) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.SelectorExpr:
			if field {
				return v.Sel
			}
			e = v.X
		default:
			return nil
		}
	}
}

// exprString renders a short source form of e for messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	default:
		return "expr"
	}
}
