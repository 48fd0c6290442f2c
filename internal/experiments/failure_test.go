package experiments

import (
	"fmt"
	"testing"
	"time"

	"corona/internal/core"
)

// TestSurvivesNodeCrashes injects failures mid-experiment: a tenth of the
// cloud crashes after convergence. The system must keep detecting updates
// (self-healing overlay, §3.3) without exceeding the load budget.
func TestSurvivesNodeCrashes(t *testing.T) {
	scale := tinyScale()
	opts := Options{Scheme: core.SchemeLite}
	h := NewHarness(scale, opts)

	// Crash 10% of nodes two hours in (after convergence).
	h.Sim.AfterFunc(2*time.Hour, func() {
		for i := 0; i < scale.Nodes/10; i++ {
			victim := h.Nodes[i*7%len(h.Nodes)]
			h.Net.Crash(victim.Self().Endpoint)
			victim.Stop()
		}
	})
	h.Run()

	// Detections must continue well past the crash point.
	pts := h.Recorder.Series.Means()
	crashBucket := int(2 * time.Hour / scale.Bucket)
	post := 0
	for i := crashBucket + 2; i < len(pts); i++ {
		if pts[i].N > 0 {
			post++
		}
	}
	if post < 3 {
		t.Fatalf("only %d post-crash buckets saw detections", post)
	}
	// Load stays bounded (no runaway re-polling).
	perInterval := h.Loads.PollsPerIntervalPerChannel(scale.Channels, scale.PollInterval, scale.WarmUp)
	budget := float64(scale.Subscriptions) / float64(scale.Channels)
	if perInterval > 2*budget {
		t.Fatalf("post-crash load %.1f polls/interval/channel exceeds 2x budget %.1f", perInterval, budget)
	}
}

// TestSurvivesMessageLoss runs Corona-Lite under 5% random message loss:
// the periodic protocol must still converge and detect updates (lost
// poll-control messages are repaired by later maintenance rounds).
func TestSurvivesMessageLoss(t *testing.T) {
	scale := tinyScale()
	scale.Channels = 200
	scale.Subscriptions = 10000
	opts := Options{Scheme: core.SchemeLite}
	h := NewHarness(scale, opts)
	h.Net.SetDropRate(0.05)
	h.Run()

	if h.Recorder.Overall.Weight() == 0 {
		t.Fatal("no detections under 5% message loss")
	}
	mean := h.Recorder.Overall.Mean()
	// Cooperation must still clearly beat solo polling (τ/2 = 900 s).
	if mean > 600 {
		t.Fatalf("detection mean %.0f s under loss; cooperation collapsed", mean)
	}
	if dropped := h.Net.Dropped(); dropped == 0 {
		t.Fatal("loss injection did not engage")
	}
}

// TestPartitionHeals splits the cloud in two for an hour, heals it, and
// verifies detection latency recovers.
func TestPartitionHeals(t *testing.T) {
	scale := tinyScale()
	scale.Channels = 150
	scale.Subscriptions = 7500
	opts := Options{Scheme: core.SchemeLite}
	h := NewHarness(scale, opts)

	h.Sim.AfterFunc(2*time.Hour, func() {
		for i, n := range h.Nodes {
			if i%2 == 1 {
				h.Net.Partition(n.Self().Endpoint, 1)
			}
		}
	})
	h.Sim.AfterFunc(3*time.Hour, func() { h.Net.Heal() })
	h.Run()

	pts := h.Recorder.Series.Means()
	healBucket := int(3*time.Hour/scale.Bucket) + 1
	post := 0
	for i := healBucket; i < len(pts); i++ {
		if pts[i].N > 0 {
			post++
		}
	}
	if post < 3 {
		t.Fatalf("only %d post-heal buckets saw detections", post)
	}
}

// TestAllSchemesRunCleanly smoke-tests every policy at small scale so a
// regression in any scheme's entry construction is caught quickly.
func TestAllSchemesRunCleanly(t *testing.T) {
	scale := tinyScale()
	scale.Channels = 100
	scale.Subscriptions = 5000
	scale.Duration = 3 * time.Hour
	scale.WarmUp = time.Hour
	for _, s := range []core.Scheme{core.SchemeLite, core.SchemeFast, core.SchemeFair, core.SchemeFairSqrt, core.SchemeFairLog} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			opts := Options{Scheme: s, FastTarget: 30 * time.Second}
			h := NewHarness(scale, opts)
			h.Run()
			if h.Recorder.Overall.Weight() == 0 {
				t.Fatalf("%v: no detections", s)
			}
			if got := h.Origin.TotalLoad().Polls; got == 0 {
				t.Fatalf("%v: no polls", s)
			}
			_ = fmt.Sprintf("%v", s)
		})
	}
}
