// Package load turns Go packages into the syntax+types form the analysis
// driver consumes, without depending on golang.org/x/tools.
//
// Two loading modes share one Package shape:
//
//   - Packages loads real module packages: `go list -export -deps -json`
//     supplies file lists plus gc export data for every dependency, the
//     main-module packages are parsed and type-checked from source, and
//     imports resolve through the export data (fast: no transitive source
//     type-checking). CGO_ENABLED=0 keeps every dependency pure Go.
//
//   - Fixtures loads analysistest trees: a fixture package lives at
//     <root>/src/<importpath>, imports of other fixture packages resolve
//     recursively from the tree (type-checked from source), and any
//     remaining imports are treated as standard-library paths whose
//     export data one `go list -export` call resolves. Fixture packages
//     may use real import paths like "corona/internal/pastry", which is
//     how analyzers gated on Corona package paths are exercised.
//
// Test files (*_test.go) are parsed but never type-checked: analyzers that
// look at tests (wiresym's robustness-test check) work on syntax alone,
// which keeps the loader to a single type-checking pass per package.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded package: parsed syntax, type information, and the
// parse-only test files.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the directory holding the source files.
	Dir string
	// Files are the compiled (non-test) files, type-checked.
	Files []*ast.File
	// TestFiles are the package's *_test.go files (in-package and
	// external), parsed with comments but not type-checked.
	TestFiles []*ast.File
	// Fset positions every file in Files and TestFiles.
	Fset *token.FileSet
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	ImportMap    map[string]string
	Standard     bool
	Module       *struct {
		Path string
		Main bool
	}
}

// goList runs `go list -export -deps -json` for patterns in dir and
// decodes the stream. CGO_ENABLED=0 so no dependency carries cgo-only
// declarations the type-checker cannot see.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,ImportMap,Standard,Module",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves import paths through gc export data files.
type exportImporter struct {
	exports map[string]string // import path -> export data file
	gc      types.Importer
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	ei.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := ei.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return ei
}

// Packages loads the main-module packages matched by patterns (e.g.
// "./...") relative to dir, type-checked from source with dependencies
// resolved from gc export data.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	ei := newExportImporter(fset, exports)

	var out []*Package
	for _, lp := range listed {
		if lp.Standard || lp.Module == nil || !lp.Module.Main {
			continue
		}
		pkg, err := checkSource(fset, lp, func(path string) (*types.Package, error) {
			if m, ok := lp.ImportMap[path]; ok {
				path = m
			}
			return ei.gc.Import(path)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// checkSource parses and type-checks one listed package from source.
func checkSource(fset *token.FileSet, lp *listedPackage, imp func(string) (*types.Package, error)) (*Package, error) {
	parse := func(names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, af)
		}
		return files, nil
	}
	files, err := parse(lp.GoFiles)
	if err != nil {
		return nil, err
	}
	testFiles, err := parse(append(append([]string{}, lp.TestGoFiles...), lp.XTestGoFiles...))
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importerFunc(imp),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:      lp.ImportPath,
		Dir:       lp.Dir,
		Files:     files,
		TestFiles: testFiles,
		Fset:      fset,
		Types:     tpkg,
		Info:      info,
	}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Fixtures loads the fixture packages at <root>/src/<path> for each path.
// Imports resolve first against the fixture tree, then as standard-library
// packages via export data.
func Fixtures(root string, paths ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	ld := &fixtureLoader{
		root:   root,
		fset:   fset,
		loaded: map[string]*Package{},
	}
	// One `go list -export` call resolves every stdlib import reachable
	// from the requested fixtures.
	std, err := ld.stdlibClosure(paths)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	if len(std) > 0 {
		listed, err := goList(root, append([]string{"-e"}, std...))
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	ld.imp = newExportImporter(fset, exports)

	var out []*Package
	for _, path := range paths {
		pkg, err := ld.load(path, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

type fixtureLoader struct {
	root   string
	fset   *token.FileSet
	imp    *exportImporter
	loaded map[string]*Package
}

// fixtureDir returns the source directory for a fixture import path, or
// "" when the tree holds no such package.
func (ld *fixtureLoader) fixtureDir(path string) string {
	dir := filepath.Join(ld.root, "src", filepath.FromSlash(path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return dir
		}
	}
	return ""
}

// goFiles lists a fixture directory's sources split into compiled and
// test files.
func goFiles(dir string) (files, testFiles []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, name)
		} else {
			files = append(files, name)
		}
	}
	sort.Strings(files)
	sort.Strings(testFiles)
	return files, testFiles, nil
}

// stdlibClosure walks the fixture import graph from the given roots and
// returns every import path not present in the fixture tree — the set to
// resolve as standard library.
func (ld *fixtureLoader) stdlibClosure(roots []string) ([]string, error) {
	seen := map[string]bool{}
	stdSet := map[string]bool{}
	var walk func(path string) error
	walk = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		dir := ld.fixtureDir(path)
		if dir == "" {
			return fmt.Errorf("fixture package %q not found under %s/src", path, ld.root)
		}
		files, _, err := goFiles(dir)
		if err != nil {
			return err
		}
		for _, name := range files {
			af, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, spec := range af.Imports {
				imp, _ := strconv.Unquote(spec.Path.Value)
				if ld.fixtureDir(imp) != "" {
					if err := walk(imp); err != nil {
						return err
					}
				} else {
					stdSet[imp] = true
				}
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r); err != nil {
			return nil, err
		}
	}
	var std []string
	for p := range stdSet {
		std = append(std, p)
	}
	sort.Strings(std)
	return std, nil
}

// load type-checks one fixture package, recursively loading fixture
// dependencies. chain guards against import cycles.
func (ld *fixtureLoader) load(path string, chain []string) (*Package, error) {
	if pkg, ok := ld.loaded[path]; ok {
		return pkg, nil
	}
	for _, c := range chain {
		if c == path {
			return nil, fmt.Errorf("fixture import cycle: %s", strings.Join(append(chain, path), " -> "))
		}
	}
	dir := ld.fixtureDir(path)
	if dir == "" {
		return nil, fmt.Errorf("fixture package %q not found under %s/src", path, ld.root)
	}
	files, testFiles, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	lp := &listedPackage{ImportPath: path, Dir: dir, GoFiles: files, TestGoFiles: testFiles}
	pkg, err := checkSource(ld.fset, lp, func(imp string) (*types.Package, error) {
		if ld.fixtureDir(imp) != "" {
			dep, err := ld.load(imp, append(chain, path))
			if err != nil {
				return nil, err
			}
			return dep.Types, nil
		}
		return ld.imp.gc.Import(imp)
	})
	if err != nil {
		return nil, err
	}
	ld.loaded[path] = pkg
	return pkg, nil
}
