package chaos

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestChurnRunsAreDeterministic: two runs of the churn scenario with one
// seed give identical delivery logs — every (client, channel, version)
// delivery with its count, the probe window's, and the latency
// histogram. Churn joiners join through core.Member.Join (JoinWait on the
// simulator clock), so this pins that the join's timers and callbacks
// stay inside the simulation's event order.
func TestChurnRunsAreDeterministic(t *testing.T) {
	cfg := CIScale()
	cfg.Nodes = 24
	cfg.Channels = 12
	cfg.Subscriptions = 300
	cfg.DelegateThreshold = 20
	cfg.ConvergeDeadline = time.Hour
	a, logA := execute(Churn(), cfg)
	b, logB := execute(Churn(), cfg)
	if a.Nodes <= cfg.Nodes {
		t.Fatalf("churn joined no node (%d nodes); the test needs joiners", a.Nodes)
	}
	if len(a.Violations) > 0 {
		t.Fatalf("first run: %d violations, first %s", len(a.Violations), a.Violations[0])
	}
	if a.Deliveries == 0 {
		t.Fatal("first run delivered nothing")
	}
	if !reflect.DeepEqual(logA.seen, logB.seen) || !reflect.DeepEqual(logA.window, logB.window) ||
		!reflect.DeepEqual(logA.windowSeen, logB.windowSeen) {
		t.Fatalf("same-seed churn runs delivered differently: %d vs %d deliveries, %d vs %d duplicates",
			logA.Total(), logB.Total(), logA.Duplicates(), logB.Duplicates())
	}
	countsA, sumA, _ := logA.latency.Snapshot()
	countsB, sumB, _ := logB.latency.Snapshot()
	if !slices.Equal(countsA, countsB) || sumA != sumB {
		t.Fatalf("same-seed churn runs differ in delivery latency: sums %v vs %v", sumA, sumB)
	}
	if a.Nodes != b.Nodes || a.LiveNodes != b.LiveNodes {
		t.Fatalf("same-seed churn runs ended with %d/%d vs %d/%d nodes/live", a.Nodes, a.LiveNodes, b.Nodes, b.LiveNodes)
	}
}
