package experiments

import (
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
)

// TestAbortedJoinIsUnreachable pins the zombie-join bug: a node whose
// join protocol never completes within the deadline must end up both
// marked Down AND genuinely unreachable. Marking it Down while leaving
// its endpoint attached produces a zombie — a half-joined overlay that
// keeps answering routed messages, wins ownership claims, and attracts
// lease re-points, all invisible to every audit that trusts Down (the
// chaos invariant checker found channels owned by exactly such a node).
func TestAbortedJoinIsUnreachable(t *testing.T) {
	scale := tinyScale()
	scale.Nodes = 16
	scale.Channels = 4
	scale.Subscriptions = 40
	h := NewHarness(scale, Options{Scheme: core.SchemeLite})
	for _, n := range h.Nodes {
		n.Start()
	}
	h.Sim.RunFor(time.Minute)

	// Wedge the join: partition the joiner away the instant it attaches.
	// The join request already left, but every reply is cut off, so the
	// protocol stalls past JoinNode's deadline and the harness aborts it.
	started := false
	if err := h.JoinNode("zombie", 0, func(int) { started = true }); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	h.Net.Partition("sim://zombie", 1)
	h.Sim.RunFor(10 * time.Minute)
	h.Net.Heal()
	h.Sim.RunFor(time.Minute)

	if started {
		t.Fatalf("join completed despite the partition; test premise broken")
	}
	idx := len(h.Nodes) - 1
	if !h.Down[idx] {
		t.Fatalf("aborted join is not marked Down")
	}
	probe := h.Net.Attach("sim://probe", func(pastry.Message) {})
	err := probe.Send(pastry.Addr{ID: ids.HashString("zombie"), Endpoint: "sim://zombie"}, pastry.Message{})
	if err == nil {
		t.Fatalf("aborted joiner still reachable after heal: Down node left attached (zombie)")
	}
}

// TestJoinerResendsAfterLostReply: a harness joiner joins the way a live
// node does, re-sending its join until the reply lands. Every link into
// the joiner drops for its first 2 s, so the replies to its first joins
// are lost; the join re-sent once the links clear completes, and the
// node starts.
func TestJoinerResendsAfterLostReply(t *testing.T) {
	scale := tinyScale()
	scale.Nodes = 16
	scale.Channels = 4
	scale.Subscriptions = 40
	h := NewHarness(scale, Options{Scheme: core.SchemeLite})
	for _, n := range h.Nodes {
		n.Start()
	}
	h.Sim.RunFor(time.Minute)

	for _, n := range h.Nodes {
		h.Net.SetLinkFault(n.Self().Endpoint, "sim://late", simnet.LinkFault{DropRate: 1})
	}
	h.InjectAt(2*time.Second, h.Net.ClearLinkFaults)
	started := -1
	if err := h.JoinNode("late", 0, func(idx int) { started = idx }); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	idx := len(h.Nodes) - 1
	h.Sim.RunFor(time.Second)
	if started >= 0 {
		t.Fatal("joined although every reply was dropped")
	}
	h.Sim.RunFor(time.Minute)
	if started != idx || h.Down[idx] {
		t.Fatalf("joiner started=%d down=%v; want started %d and up", started, h.Down[idx], idx)
	}
	if !h.Nodes[idx].Overlay().Joined() {
		t.Fatal("joiner started before its overlay joined")
	}
}
