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

// TestChurnJoinsOnJoinersSideOfPartition cuts half the initial cloud off
// for the whole churn window. Every churn joiner must send its join to a
// live node on its own side of the cut (a join sent across the cut fails
// at once, and its joiner is crashed in the same instant), and every
// join must complete while the partition holds: a member on the
// joiner's side forwards the join past hops across the cut, whose sends
// fail, instead of dropping it. The test samples the joiners every
// 100 ms of virtual time (churn events are at least 1 s apart), fails on
// any joiner already down when first seen, and on any joiner never seen
// joined before the cut heals.
func TestChurnJoinsOnJoinersSideOfPartition(t *testing.T) {
	cfg := CIScale()
	cfg.Nodes = 24
	cfg.Channels = 12
	cfg.Subscriptions = 300
	cfg.DelegateThreshold = 20
	cfg.ConvergeDeadline = time.Hour
	downAtBirth := map[string]bool{}
	joined := map[string]bool{}
	sc := Scenario{Name: "partitioned-churn", Inject: func(r *Run) {
		r.H.InjectAt(cfg.Duration/8, func() {
			for i := 1; i < cfg.Nodes; i += 2 {
				r.H.Net.Partition(r.H.Nodes[i].Self().Endpoint, 1)
			}
		})
		Churn().Inject(r)
		sample := func() {
			for i := cfg.Nodes; i < len(r.H.Nodes); i++ {
				ep := r.H.Nodes[i].Self().Endpoint
				if _, seen := downAtBirth[ep]; !seen {
					downAtBirth[ep] = r.H.Down[i]
				}
				if r.H.Nodes[i].Overlay().Joined() {
					joined[ep] = true
				}
			}
		}
		r.H.EveryCheckpoint(100*time.Millisecond, func(time.Time) { sample() })
		// Churn joins until 3/4 of the run; a join resolves within 5 min.
		r.H.InjectAt(cfg.Duration*3/4+6*time.Minute, func() {
			sample()
			r.H.Net.Heal()
		})
	}}
	execute(sc, cfg)
	if len(downAtBirth) == 0 {
		t.Fatal("no churn joiners; the test needs joins")
	}
	for ep, down := range downAtBirth {
		if down {
			t.Errorf("churn joiner %s was crashed the instant it joined: its join crossed the cut", ep)
		}
		if !joined[ep] {
			t.Errorf("churn joiner %s never joined while the partition held", ep)
		}
	}
}
