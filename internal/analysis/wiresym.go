package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
)

// WireSym (wire-symmetry) enforces the discipline the wire-format PRs
// maintain by hand: every payload type registered with internal/codec's
// binary registry must define BOTH halves of the native binary contract —
// an AppendBinary encoder and a DecodeBinary decoder — and must be
// exercised by a robustness test (a Fuzz* function or a truncation test)
// in the package's _test.go files. A type with only one half panics at
// registration or fails every encode at run time, which no test of its
// own package necessarily exercises; a type without a truncation/fuzz test is one hostile frame
// away from a panic in the decode path.
//
// Registration sites are recognized structurally: any call of the
// registry shape f(msgType string, factory func() any) whose factory
// literal returns a composite literal &T{} — this covers direct
// codec.RegisterPayload calls and the register-callback indirection in
// core.RegisterPayloadTypes. Only types declared in the package under
// analysis are checked (a cross-package registration is checked where
// the type lives).
var WireSym = &Analyzer{
	Name: "wiresym",
	Doc: "verifies every codec-registered payload type defines both AppendBinary and DecodeBinary " +
		"and is referenced by a truncation/fuzz test in the package's _test.go files",
	Run: runWireSym,
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
		site := regs[tn]
		hasEnc := hasMethod(tn, "AppendBinary")
		hasDec := hasMethod(tn, "DecodeBinary")
		switch {
		case hasEnc && !hasDec:
			pass.Reportf(site.Pos(), "%s registered with an AppendBinary encoder but no DecodeBinary decoder: peers cannot parse what this node sends", tn.Name())
		case !hasEnc && hasDec:
			pass.Reportf(site.Pos(), "%s registered with a DecodeBinary decoder but no AppendBinary encoder: every send of it fails to encode", tn.Name())
		case !hasEnc && !hasDec:
			pass.Reportf(site.Pos(), "%s registered without a native binary wire form: define AppendBinary/DecodeBinary (or register a type that has them)", tn.Name())
		}
		if hasEnc && hasDec && !robust[tn.Name()] {
			pass.Reportf(site.Pos(), "%s has no truncation/fuzz coverage: reference it from a Fuzz* or *Truncat* test in this package's _test.go files", tn.Name())
		}
	}
	return nil
}

// registeredType returns the type name T when call has the registry
// shape f("msg.type", func() any { return &T{} }), else nil.
func registeredType(pass *Pass, call *ast.CallExpr) *types.TypeName {
	if len(call.Args) != 2 {
		return nil
	}
	sig, ok := pass.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok || sig.Params().Len() != 2 {
		return nil
	}
	if b, ok := sig.Params().At(0).Type().(*types.Basic); !ok || b.Kind() != types.String && b.Kind() != types.UntypedString {
		return nil
	}
	fsig, ok := sig.Params().At(1).Type().Underlying().(*types.Signature)
	if !ok || fsig.Params().Len() != 0 || fsig.Results().Len() != 1 {
		return nil
	}
	if _, ok := fsig.Results().At(0).Type().Underlying().(*types.Interface); !ok {
		return nil
	}
	lit, ok := call.Args[1].(*ast.FuncLit)
	if !ok {
		return nil
	}
	// The factory body must be a single `return &T{}` (or `return T{}`).
	if len(lit.Body.List) != 1 {
		return nil
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	expr := ret.Results[0]
	if u, ok := expr.(*ast.UnaryExpr); ok {
		expr = u.X
	}
	comp, ok := expr.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	t := pass.Info.Types[comp].Type
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// hasMethod reports whether tn's type (or its pointer) declares a method
// with the given name.
func hasMethod(tn *types.TypeName, name string) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
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
