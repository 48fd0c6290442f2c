// Package analysistest runs one analyzer against fixture packages under
// a testdata tree and checks its diagnostics against // want comments,
// mirroring golang.org/x/tools/go/analysis/analysistest on the
// self-contained loader.
//
// A fixture line expecting a diagnostic carries a comment of the form
//
//	code() // want "regexp"
//	code() // want "first" "second"
//
// Every reported diagnostic must match a want on its line, and every
// want must be matched by a diagnostic; mismatches fail the test with
// the full delta. A want comment whose text is not a list of quoted
// regexps fails the test too.
package analysistest

import (
	"fmt"
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"corona/internal/analysis"
	"corona/internal/analysis/load"
)

// Run loads the fixture packages at <testdata>/src/<path> and applies
// the analyzer, comparing findings with // want comments. The driver's
// //lint:allow machinery is active, so fixtures can exercise
// suppressions too.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	pkgs, err := load.Fixtures(testdata, paths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, p := range check(pkgs, findings) {
		t.Error(p)
	}
}

// want is one expected finding: a regexp for the message of a finding
// on its file and line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// check compares findings with the // want comments in pkgs' files and
// returns one problem per mismatch, each naming its file:line: a finding
// no want on its line matches, a want no finding matches, and a want
// comment that does not parse. Each want matches at most one finding.
func check(pkgs []*load.Package, findings []analysis.Finding) []string {
	var wants []*want
	var problems []string
	for _, pkg := range pkgs {
		for _, f := range append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...) {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					res, err := parseWants(m[1])
					if err != nil {
						problems = append(problems, fmt.Sprintf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err))
					}
					for _, re := range res {
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	for _, f := range findings {
		if w := firstMatch(wants, f); w != nil {
			w.matched = true
			continue
		}
		problems = append(problems, fmt.Sprintf("unexpected finding at %s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message))
	}
	for _, w := range wants {
		if !w.matched {
			problems = append(problems, fmt.Sprintf("missing finding at %s:%d: want match for %q", w.file, w.line, w.re))
		}
	}
	return problems
}

// firstMatch returns the first unmatched want on f's line that matches
// f's message, or nil.
func firstMatch(wants []*want, f analysis.Finding) *want {
	for _, w := range wants {
		if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
			return w
		}
	}
	return nil
}

var wantRe = regexp.MustCompile(`// want\b(.*)$`)

// parseWants compiles the quoted regexps of a want comment's text, such
// as `"a" "b c"`. Text that is not a quoted Go string, a string that is
// not a regexp, or no string at all is an error, returned with the
// regexps before it.
func parseWants(s string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("no pattern")
	}
	for s != "" {
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return res, fmt.Errorf("want a quoted pattern at %q", s)
		}
		pat, _ := strconv.Unquote(q) // QuotedPrefix vouched for it
		re, err := regexp.Compile(pat)
		if err != nil {
			return res, fmt.Errorf("bad regexp %q: %v", pat, err)
		}
		res = append(res, re)
		s = strings.TrimSpace(s[len(q):])
	}
	return res, nil
}
