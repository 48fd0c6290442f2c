package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"corona/internal/chaos"
)

// runMainEnv, when set, makes the test binary run the command's main
// instead of the tests: runMain re-executes the binary that way, so the
// command's exit code and output are observable.
const runMainEnv = "CORONA_CHAOS_RUN_MAIN"

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

func TestListNamesEveryScenario(t *testing.T) {
	stdout, stderr, code := runMain(t, "-list")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	scenarios := chaos.Scenarios()
	if len(lines) != len(scenarios) {
		t.Fatalf("-list printed %d lines for %d scenarios:\n%s", len(lines), len(scenarios), stdout)
	}
	for i, sc := range scenarios {
		if fields := strings.Fields(lines[i]); len(fields) == 0 || fields[0] != sc.Name {
			t.Errorf("-list line %d is %q, want scenario %s", i, lines[i], sc.Name)
		}
	}
}

func TestUnknownScenarioExits2(t *testing.T) {
	stdout, stderr, code := runMain(t, "-scenario", "no-such-scenario")
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stderr, `unknown scenario "no-such-scenario"`) {
		t.Fatalf("stderr %q does not name the unknown scenario", stderr)
	}
}

func TestScenarioWritesCleanReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one CI-scale chaos scenario (about a second)")
	}
	out := filepath.Join(t.TempDir(), "BENCH_scale.json")
	stdout, stderr, code := runMain(t, "-scenario", "rack-failure", "-scale", "ci", "-o", out)
	if code != 0 {
		t.Fatalf("exit code %d: %s\n%s", code, stderr, stdout)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Scale      string `json:"scale"`
		Benchmarks []struct {
			Name       string             `json:"name"`
			Iterations int64              `json:"iterations"`
			Metrics    map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if report.Scale != "ci" || len(report.Benchmarks) != 1 {
		t.Fatalf("report has scale %q and %d benchmarks, want ci and 1", report.Scale, len(report.Benchmarks))
	}
	b := report.Benchmarks[0]
	if !strings.HasPrefix(b.Name, "ChaosScenario/rack-failure/") || b.Iterations != 1 {
		t.Fatalf("benchmark entry %q with %d iterations", b.Name, b.Iterations)
	}
	violations, ok := b.Metrics["invariant_violations"]
	if !ok || violations != 0 {
		t.Fatalf("invariant_violations = %v (present %v), want 0", violations, ok)
	}
	if b.Metrics["deliveries"] <= 0 {
		t.Fatalf("the scenario delivered nothing: %v", b.Metrics)
	}
}
