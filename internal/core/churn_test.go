package core_test

import (
	"fmt"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/ids"
	"corona/internal/pastry"
)

// TestNodeJoinsMidRun verifies the dynamic-membership path: a node joins
// through the message-driven join protocol while the cloud is operating,
// converges into the ring, and can serve as a subscription entry point.
func TestNodeJoinsMidRun(t *testing.T) {
	tc := newTestCloud(t, 12, nil)
	url := "http://feeds.example.net/churn.xml"
	tc.host(url, 20*time.Minute)
	tc.nodes[0].Subscribe("alice", url)
	tc.sim.RunFor(30 * time.Minute)

	// A thirteenth node joins through node 0.
	overlay := tc.net.Node(pastry.Addr{ID: ids.HashString("joiner"), Endpoint: "sim://joiner"})
	cfg := core.DefaultConfig()
	cfg.NodeCount = 13
	cfg.PollInterval = 10 * time.Minute
	cfg.MaintenanceInterval = 20 * time.Minute
	cfg.Seed = 99
	fetcher := &core.OriginFetcher{Origin: tc.origin, Clock: tc.sim}
	joiner := core.NewNode(cfg, overlay, tc.sim, fetcher, tc.notify, tc.sink)
	if err := overlay.Join(tc.nodes[0].Self()); err != nil {
		t.Fatalf("join: %v", err)
	}
	tc.sim.RunFor(time.Minute)
	if !overlay.Joined() {
		t.Fatal("joiner did not complete the join protocol")
	}
	joiner.Start()

	// The joiner can act as an entry point: subscriptions routed through
	// it reach the (possibly unchanged) owner.
	joiner.Subscribe("bob", url)
	tc.sim.RunFor(time.Minute)
	total := 0
	for _, n := range append(tc.nodes, joiner) {
		total += n.Stats().SubscriptionsHeld
	}
	if total != 2 {
		t.Fatalf("subscriptions held across cloud = %d, want 2", total)
	}

	// Updates keep flowing after the join.
	before := len(tc.sink.earliest)
	tc.sim.RunFor(2 * time.Hour)
	if len(tc.sink.earliest) <= before {
		t.Fatal("no updates detected after join")
	}
}

// TestManyJoinsConvergeOwnership verifies that after a batch of protocol
// joins, exactly one node considers itself the owner of each channel.
func TestManyJoinsConvergeOwnership(t *testing.T) {
	tc := newTestCloud(t, 8, nil)
	urls := make([]string, 10)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://feeds.example.net/own%d.xml", i)
		tc.host(urls[i], time.Hour)
		tc.nodes[i%len(tc.nodes)].Subscribe(fmt.Sprintf("c%d", i), urls[i])
	}
	tc.sim.RunFor(10 * time.Minute)
	for _, url := range urls {
		id := ids.HashString(url)
		owners := 0
		for _, n := range tc.nodes {
			if n.Overlay().IsRoot(id) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("channel %s has %d overlay roots", url, owners)
		}
	}
}
