package chaos

import (
	"os"
	"testing"
)

// TestScenarios runs the full suite at CI scale with the fixed seed and
// asserts zero invariant violations — the chaos-smoke CI step runs this
// under the race detector. Set CORONA_CHAOS=off to skip locally.
func TestScenarios(t *testing.T) {
	if os.Getenv("CORONA_CHAOS") == "off" {
		t.Skip("CORONA_CHAOS=off")
	}
	cfg := CIScale()
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Execute(sc, cfg)
			t.Logf("%s: converged=%v, %d deliveries (%d dup), %d lost channels, peak owner %d notifies",
				sc.Name, res.Converged, res.Deliveries, res.Duplicates, res.LostChannels, res.PeakOwnerNotifies)
			if !res.Converged {
				t.Errorf("did not converge within %v", cfg.ConvergeDeadline)
			}
			for i, v := range res.Violations {
				if i >= 10 {
					t.Errorf("... and %d more violations", len(res.Violations)-i)
					break
				}
				t.Errorf("violation: %s", v)
			}
		})
	}
}
