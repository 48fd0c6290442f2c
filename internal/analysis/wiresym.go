package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
)

// WireSym (wire-symmetry) enforces the discipline the wire-format PRs
// maintain by hand: every payload type an overlay handler is registered
// for must be exercised by a robustness test (a Fuzz* function or a
// truncation test) in the package's _test.go files, since a type without
// one is one hostile frame away from a panic in the decode path. That the
// type has both halves of its native binary form, an AppendBinary encoder
// and a DecodeBinary decoder, is checked by the compiler: pastry.Handle
// constrains its payload type to both.
//
// Registration sites are recognized structurally: any call of a generic
// function named Handle instantiated with a named type T and *T, the
// shape of pastry.Handle[T, *T], whether T is inferred from the handler
// or written out. Only types declared in the package under analysis are
// checked (a cross-package registration is checked where the type
// lives).
var WireSym = &Analyzer{
	Name: "wiresym",
	Doc:  "verifies every payload type registered with an overlay handler is referenced by a truncation/fuzz test in the package's _test.go files",
	Run:  runWireSym,
}

func runWireSym(pass *Pass) error {
	regs := map[*types.TypeName]ast.Node{} // registered type -> first registration site
	var order []*types.TypeName
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			tn := registeredType(pass, call)
			if tn == nil || tn.Pkg() != pass.Pkg {
				return true
			}
			if _, seen := regs[tn]; !seen {
				regs[tn] = call
				order = append(order, tn)
			}
			return true
		})
	}
	if len(regs) == 0 {
		return nil
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Name() < order[j].Name() })

	robust := robustTestRefs(pass)
	for _, tn := range order {
		if !robust[tn.Name()] {
			pass.Reportf(regs[tn].Pos(), "%s has no truncation/fuzz coverage: reference it from a Fuzz* or *Truncat* test in this package's _test.go files", tn.Name())
		}
	}
	return nil
}

// registeredType returns the type name T when call has the registration
// shape Handle[T, *T](...), else nil.
func registeredType(pass *Pass, call *ast.CallExpr) *types.TypeName {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	inst, ok := pass.Info.Instances[id]
	if !ok || id.Name != "Handle" || inst.TypeArgs.Len() != 2 {
		return nil
	}
	named, ok := inst.TypeArgs.At(0).(*types.Named)
	if !ok || !types.Identical(inst.TypeArgs.At(1), types.NewPointer(named)) {
		return nil
	}
	return named.Obj()
}

var robustFuncName = regexp.MustCompile(`^Fuzz|Truncat`)

// robustTestRefs scans the package's parse-only test files: every
// identifier appearing in a test file that defines at least one Fuzz* or
// *Truncat* function counts as robustness-covered. File granularity is
// deliberate — table-driven fuzz corpora reference types from package
// variables the Fuzz function consumes, so per-function attribution
// would miss them.
func robustTestRefs(pass *Pass) map[string]bool {
	refs := map[string]bool{}
	for _, f := range pass.TestFiles {
		hasRobust := false
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && robustFuncName.MatchString(fd.Name.Name) {
				hasRobust = true
				break
			}
		}
		if !hasRobust {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs[id.Name] = true
			}
			return true
		})
	}
	return refs
}
