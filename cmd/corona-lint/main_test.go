package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"corona/internal/analysis"
)

// runMainEnv, when set, makes the test binary run the command's main
// instead of the tests: runMain re-executes the binary that way, so the
// command's exit code and output are observable.
const runMainEnv = "CORONA_LINT_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its stdout, stderr and
// exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	stdout, stderr, code := runMain(t, "-list")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	analyzers := analysis.All()
	if len(lines) != len(analyzers) {
		t.Fatalf("-list printed %d lines for %d analyzers:\n%s", len(lines), len(analyzers), stdout)
	}
	for i, a := range analyzers {
		if fields := strings.Fields(lines[i]); len(fields) == 0 || fields[0] != a.Name {
			t.Errorf("-list line %d is %q, want analyzer %s", i, lines[i], a.Name)
		}
	}
}

// TestPlantedViolationFails runs the linter over a package that reads
// the wall clock beside an injected clock.Clock.
func TestPlantedViolationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a package through go list")
	}
	stdout, stderr, code := runMain(t, "./testdata/planted")
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	finding := regexp.MustCompile(`(?m)^\S*testdata/planted/planted\.go:13:\d+: wallclock: time\.Now in a virtual-clock package`)
	if !finding.MatchString(stdout) {
		t.Fatalf("stdout %q has no file:line:col: analyzer: message finding for the planted time.Now", stdout)
	}
}

func TestCleanPackagePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a package through go list")
	}
	stdout, stderr, code := runMain(t, "./testdata/clean")
	if code != 0 || stdout != "" {
		t.Fatalf("exit code %d, stdout %q, stderr %q; want 0 and no findings", code, stdout, stderr)
	}
}
