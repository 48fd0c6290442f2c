package load_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corona/internal/analysis/load"
)

// TestPackagesTypeChecksEveryFile loads one small package of this module
// and requires a type for every top-level declaration of every non-test
// file, and the package's test files parsed but left out of the type
// information.
func TestPackagesTypeChecksEveryFile(t *testing.T) {
	pkgs, err := load.Packages(".", "corona/internal/ids")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "corona/internal/ids" {
		t.Fatalf("loaded %d packages, want corona/internal/ids alone", len(pkgs))
	}
	pkg := pkgs[0]

	sources, err := filepath.Glob(filepath.Join(pkg.Dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var nonTest int
	for _, name := range sources {
		if !strings.HasSuffix(name, "_test.go") {
			nonTest++
		}
	}
	if len(pkg.Files) != nonTest || nonTest == 0 {
		t.Fatalf("type-checked %d files, the directory holds %d non-test files", len(pkg.Files), nonTest)
	}
	if !pkg.Types.Complete() {
		t.Fatal("package types are incomplete")
	}
	for _, f := range pkg.Files {
		for _, id := range topLevelNames(f) {
			if obj := pkg.Info.Defs[id]; obj == nil || obj.Type() == nil {
				t.Errorf("%s: %s has no type information", pkg.Fset.Position(id.Pos()), id.Name)
			}
		}
	}

	if len(pkg.TestFiles) == 0 {
		t.Fatal("no test files parsed")
	}
	for _, f := range pkg.TestFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (pkg.Info.Defs[id] != nil || pkg.Info.Uses[id] != nil) {
				t.Errorf("%s: test file identifier %s was type-checked", pkg.Fset.Position(id.Pos()), id.Name)
				return false
			}
			return true
		})
	}
}

// TestFixturesSkipTypeCheckingTests loads a fixture whose test file does
// not compile: the load succeeds because test files are only parsed.
func TestFixturesSkipTypeCheckingTests(t *testing.T) {
	pkgs, err := load.Fixtures("testdata", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	if len(pkg.Files) != 1 || len(pkg.TestFiles) != 1 {
		t.Fatalf("tiny: %d files and %d test files, want 1 and 1", len(pkg.Files), len(pkg.TestFiles))
	}
	if pkg.Types.Scope().Lookup("Double") == nil {
		t.Fatal("tiny.Double was not type-checked")
	}
	if pkg.Types.Scope().Lookup("notAnInt") != nil {
		t.Fatal("the test file's declaration reached the package scope")
	}
}

// TestFixturesMissingPath requires an error, not an empty package, for a
// fixture path the tree does not hold.
func TestFixturesMissingPath(t *testing.T) {
	if _, err := os.Stat(filepath.Join("testdata", "src", "absent")); !os.IsNotExist(err) {
		t.Fatalf("testdata/src/absent should not exist: %v", err)
	}
	pkgs, err := load.Fixtures("testdata", "absent")
	if err == nil {
		t.Fatalf("Fixtures on a missing path returned %d packages and no error", len(pkgs))
	}
}

// topLevelNames returns the identifiers a file declares at package
// level: functions, methods, types, variables and constants.
func topLevelNames(f *ast.File) []*ast.Ident {
	var names []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.Name != "_" {
							names = append(names, n)
						}
					}
				}
			}
		}
	}
	return names
}
