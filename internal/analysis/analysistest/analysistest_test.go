package analysistest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"corona/internal/analysis"
	"corona/internal/analysis/load"
)

// fixture parses src as the one file, f.go, of a package.
func fixture(t *testing.T, src string) []*load.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return []*load.Package{{Path: "fixture", Fset: fset, Files: []*ast.File{f}}}
}

// finding is a finding of the analyzer "x" on line of f.go.
func finding(line int, msg string) analysis.Finding {
	return analysis.Finding{Analyzer: "x", Pos: token.Position{Filename: "f.go", Line: line}, Message: msg}
}

// expectProblems fails unless check reports exactly one problem starting
// with each prefix, in order.
func expectProblems(t *testing.T, got []string, prefixes ...string) {
	t.Helper()
	ok := len(got) == len(prefixes)
	for i := 0; ok && i < len(got); i++ {
		ok = strings.HasPrefix(got[i], prefixes[i])
	}
	if !ok {
		t.Fatalf("problems:\n%s\nwant one starting with each of %q", strings.Join(got, "\n"), prefixes)
	}
}

const src = `package fixture

func f() {
	g() // want "calls g" "twice"
	h() // want "calls h"
}

func g() {}
func h() {}
`

func TestCheckMatchedWantsPass(t *testing.T) {
	got := check(fixture(t, src), []analysis.Finding{
		finding(4, "twice over"),
		finding(4, "f calls g"),
		finding(5, "f calls h"),
	})
	expectProblems(t, got)
}

func TestCheckReportsMissingAndUnexpected(t *testing.T) {
	got := check(fixture(t, src), []analysis.Finding{
		finding(4, "f calls g"),
		finding(4, "twice"),
		finding(8, "g is empty"),
	})
	expectProblems(t, got,
		"unexpected finding at f.go:8: x: g is empty",
		`missing finding at f.go:5: want match for "calls h"`,
	)
}

func TestCheckReportsSecondFindingOnOneWant(t *testing.T) {
	got := check(fixture(t, src), []analysis.Finding{
		finding(4, "f calls g"),
		finding(4, "twice"),
		finding(5, "f calls h"),
		finding(5, "f calls h again"),
	})
	expectProblems(t, got, "unexpected finding at f.go:5: x: f calls h again")
}

func TestCheckReportsMalformedWants(t *testing.T) {
	const bad = `package fixture

func f() {
	g() // want calls g
	g() // want "calls g" and more
	g() // want "unterminated
	g() // want "(unclosed"
	g() // want
}

func g() {}
`
	got := check(fixture(t, bad), []analysis.Finding{finding(5, "f calls g")})
	expectProblems(t, got,
		"f.go:4: bad want comment: want a quoted pattern",
		"f.go:5: bad want comment: want a quoted pattern",
		"f.go:6: bad want comment: want a quoted pattern",
		"f.go:7: bad want comment: bad regexp",
		"f.go:8: bad want comment: no pattern",
	)
}
