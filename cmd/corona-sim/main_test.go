package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run the command's main
// instead of the tests: runMain re-executes the binary that way, so the
// command's exit code and output are observable.
const runMainEnv = "CORONA_SIM_RUN_MAIN"

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

func TestNormalizeMapsFiguresToRunners(t *testing.T) {
	for name, want := range map[string]string{
		"fig3": "fig34", "fig4": "fig34", "fig34": "fig34", "FIG3": "fig34",
		"fig5": "fig56", "fig6": "fig56", "fig56": "fig56",
		"fig7": "fig78", "fig8": "fig78", "fig78": "fig78",
		"fig9": "fig910", "fig10": "fig910", "fig910": "fig910",
		"table2": "table2", "Table2": "table2",
		"all": "all", "ALL": "all",
		"fig11": "fig11",
	} {
		if got := normalize(name); got != want {
			t.Errorf("normalize(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	stdout, stderr, code := runMain(t, "-experiment", "fig11")
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stderr, `unknown experiment "fig11"`) {
		t.Fatalf("stderr %q does not name the unknown experiment", stderr)
	}
}

func TestTable2TinyPrintsEveryScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny-scale simulation (seconds)")
	}
	stdout, stderr, code := runMain(t, "-experiment", "table2", "-scale", "tiny")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	for _, scheme := range []string{"Legacy-RSS", "Corona-Lite", "Corona-Fair", "Corona-Fair-Sqrt", "Corona-Fair-Log", "Corona-Fast"} {
		row := false
		for _, line := range strings.Split(stdout, "\n") {
			if fields := strings.Fields(line); len(fields) == 4 && fields[0] == scheme {
				row = true
			}
		}
		if !row {
			t.Errorf("no %s row in the table2 output:\n%s", scheme, stdout)
		}
	}
}
