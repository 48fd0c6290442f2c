package pastry_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
)

// testRing builds n nodes on a simnet with converged static state.
func testRing(t testing.TB, n int, seed int64) (*eventsim.Sim, *simnet.Network, []*pastry.Node) {
	t.Helper()
	sim := eventsim.New(seed)
	net := simnet.New(sim, simnet.FixedLatency(5*time.Millisecond))
	return sim, net, net.Ring(n, sim.RNG("ring-ids"))
}

func TestRoutingReachesNumericallyClosestNode(t *testing.T) {
	sim, _, nodes := testRing(t, 64, 7)
	rng := rand.New(rand.NewSource(99))

	for trial := 0; trial < 50; trial++ {
		key := ids.Random(rng)
		// Ground truth: numerically closest node.
		want := nodes[0]
		for _, n := range nodes[1:] {
			if n.Self().ID.Distance(key).Cmp(want.Self().ID.Distance(key)) < 0 {
				want = n
			}
		}
		var deliveredAt *pastry.Node
		typ := fmt.Sprintf("test.route.%d", trial)
		for _, n := range nodes {
			n := n
			n.Handle(typ, func(m pastry.Message) { deliveredAt = n })
		}
		src := nodes[rng.Intn(len(nodes))]
		if err := src.Route(key, typ, nil); err != nil {
			t.Fatalf("route: %v", err)
		}
		sim.RunFor(5 * time.Second)
		if deliveredAt == nil {
			t.Fatalf("trial %d: message never delivered", trial)
		}
		if deliveredAt.Self().ID != want.Self().ID {
			t.Fatalf("trial %d: delivered at %v, want %v (key %v)",
				trial, deliveredAt.Self(), want.Self(), key)
		}
	}
}

func TestRoutingHopCountLogarithmic(t *testing.T) {
	sim, _, nodes := testRing(t, 128, 3)
	rng := rand.New(rand.NewSource(5))
	var totalHops, delivered int
	typ := "test.hops"
	for _, n := range nodes {
		n.Handle(typ, func(m pastry.Message) {
			totalHops += m.Hops
			delivered++
		})
	}
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		src := nodes[rng.Intn(len(nodes))]
		src.Route(ids.Random(rng), typ, nil)
	}
	sim.RunFor(time.Minute)
	if delivered != trials {
		t.Fatalf("delivered %d of %d", delivered, trials)
	}
	mean := float64(totalHops) / float64(delivered)
	// ceil(log16 128) = 2; allow slack for leaf-set hops.
	if mean > 4.0 {
		t.Fatalf("mean hops %.2f exceeds logarithmic bound", mean)
	}
}

func TestRouteToOwnKeyDeliversLocally(t *testing.T) {
	sim, _, nodes := testRing(t, 16, 11)
	n := nodes[3]
	delivered := false
	n.Handle("test.self", func(m pastry.Message) { delivered = true })
	n.Route(n.Self().ID, "test.self", nil)
	sim.RunFor(time.Second)
	if !delivered {
		t.Fatal("message to own ID not delivered locally")
	}
}

func TestConsistentRootAcrossSources(t *testing.T) {
	sim, _, nodes := testRing(t, 64, 13)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		key := ids.Random(rng)
		typ := fmt.Sprintf("test.root.%d", trial)
		roots := map[string]bool{}
		for _, n := range nodes {
			n := n
			n.Handle(typ, func(m pastry.Message) { roots[n.Self().ID.String()] = true })
		}
		for i := 0; i < 8; i++ {
			nodes[rng.Intn(len(nodes))].Route(key, typ, nil)
		}
		sim.RunFor(10 * time.Second)
		if len(roots) != 1 {
			t.Fatalf("trial %d: key %v delivered at %d distinct roots", trial, key, len(roots))
		}
	}
}

func TestBroadcastCoversWedgeExactly(t *testing.T) {
	sim, _, nodes := testRing(t, 128, 23)
	rng := rand.New(rand.NewSource(31))

	for _, level := range []int{0, 1, 2} {
		channel := ids.Random(rng)
		// Find a node in the wedge to initiate (the owner-side member).
		var initiator *pastry.Node
		for _, n := range nodes {
			if ids.InWedge(n.Self().ID, channel, level) {
				if initiator == nil || ids.CommonPrefix(n.Self().ID, channel) > ids.CommonPrefix(initiator.Self().ID, channel) {
					initiator = n
				}
			}
		}
		if initiator == nil {
			continue // no wedge members at this level for this channel
		}
		typ := fmt.Sprintf("test.bcast.%d", level)
		got := map[string]int{}
		for _, n := range nodes {
			n := n
			n.Handle(typ, func(m pastry.Message) { got[n.Self().Endpoint]++ })
		}
		initiator.Broadcast(level, typ, nil)
		sim.RunFor(time.Minute)

		want := map[string]bool{}
		for _, n := range nodes {
			if ids.InWedge(n.Self().ID, channel, level) {
				want[n.Self().Endpoint] = true
			}
		}
		// Initiator must receive its own broadcast.
		if got[initiator.Self().Endpoint] == 0 {
			t.Errorf("level %d: initiator did not deliver locally", level)
		}
		for ep := range want {
			if got[ep] == 0 {
				t.Errorf("level %d: wedge member %s missed broadcast", level, ep)
			}
		}
		for ep, count := range got {
			if !want[ep] {
				t.Errorf("level %d: non-wedge node %s received broadcast", level, ep)
			}
			if count > 1 {
				t.Errorf("level %d: node %s received %d duplicates", level, ep, count)
			}
		}
	}
}

// TestSmallRingRoutesInOneHop: in a ring small enough for every leaf set
// to hold every node, a routed message goes straight to its key's root. A
// detour through a third node is lost when that node has just died (an
// asynchronous transport learns of the death only after the send).
func TestSmallRingRoutesInOneHop(t *testing.T) {
	sim, _, nodes := testRing(t, 3, 11)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 64; trial++ {
		key := ids.Random(rng)
		root := nodes[0]
		for _, n := range nodes[1:] {
			if n.Self().ID.Distance(key).Cmp(root.Self().ID.Distance(key)) < 0 {
				root = n
			}
		}
		var at *pastry.Node
		hops := -1
		typ := fmt.Sprintf("test.small.%d", trial)
		for _, n := range nodes {
			n := n
			n.Handle(typ, func(m pastry.Message) { at, hops = n, m.Hops })
		}
		src := nodes[trial%len(nodes)]
		if err := src.Route(key, typ, nil); err != nil {
			t.Fatal(err)
		}
		sim.RunFor(time.Second)
		want := 1
		if src == root {
			want = 0
		}
		if at != root || hops != want {
			got := "nowhere"
			if at != nil {
				got = at.Self().Endpoint
			}
			t.Fatalf("key %v from %s: delivered at %s in %d hops, want %s in %d", key, src.Self().Endpoint, got, hops, root.Self().Endpoint, want)
		}
	}
}

func TestJoinProtocolConverges(t *testing.T) {
	sim := eventsim.New(41)
	net := simnet.New(sim, simnet.FixedLatency(2*time.Millisecond))
	rng := sim.RNG("join-ids")

	mk := func(i int) *pastry.Node {
		return net.Node(pastry.Addr{ID: ids.Random(rng), Endpoint: fmt.Sprintf("sim://%d", i)})
	}
	first := mk(0)
	first.Bootstrap()
	nodes := []*pastry.Node{first}
	for i := 1; i < 24; i++ {
		n := mk(i)
		if err := n.Join(nodes[rng.Intn(len(nodes))].Self()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		sim.RunFor(3 * time.Second)
		if !n.Joined() {
			t.Fatalf("node %d did not complete join", i)
		}
		nodes = append(nodes, n)
	}
	// After all joins, routing from every node must reach the true root.
	key := ids.Random(rng)
	want := nodes[0]
	for _, n := range nodes[1:] {
		if n.Self().ID.Distance(key).Cmp(want.Self().ID.Distance(key)) < 0 {
			want = n
		}
	}
	for i, src := range nodes {
		var root *pastry.Node
		typ := fmt.Sprintf("test.join.%d", i)
		for _, n := range nodes {
			n := n
			n.Handle(typ, func(m pastry.Message) { root = n })
		}
		src.Route(key, typ, nil)
		sim.RunFor(5 * time.Second)
		if root == nil || root.Self().ID != want.Self().ID {
			t.Fatalf("from node %d: routed to %v, want %v", i, root, want.Self())
		}
	}
}

func TestFailureRepair(t *testing.T) {
	sim, net, nodes := testRing(t, 32, 53)
	victim := nodes[7]
	net.Crash(victim.Self().Endpoint)

	var faults []pastry.Addr
	nodes[8].OnFault(func(a pastry.Addr) { faults = append(faults, a) })

	// Sending to the dead node must fail and trigger eviction.
	err := nodes[8].SendDirect(victim.Self(), "test.fail", nil)
	if err == nil {
		t.Fatal("send to crashed node succeeded")
	}
	sim.RunFor(10 * time.Second)
	if len(faults) != 1 || faults[0].ID != victim.Self().ID {
		t.Fatalf("fault callback not invoked for victim: %v", faults)
	}
	for _, a := range nodes[8].KnownNodes() {
		if a.ID == victim.Self().ID {
			t.Fatal("victim still present in routing state after failure")
		}
	}
	// Routing still works from the healthy node for arbitrary keys.
	rng := rand.New(rand.NewSource(3))
	delivered := 0
	typ := "test.after-fail"
	for _, n := range nodes {
		if n == victim {
			continue
		}
		n.Handle(typ, func(m pastry.Message) { delivered++ })
	}
	for i := 0; i < 20; i++ {
		nodes[8].Route(ids.Random(rng), typ, nil)
	}
	sim.RunFor(time.Minute)
	if delivered < 19 { // a route may terminate at the dead root's key space
		t.Fatalf("only %d of 20 messages delivered after failure", delivered)
	}
}

func TestLearnIgnoresSelfAndZero(t *testing.T) {
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(0))
	n := net.Node(pastry.Addr{ID: ids.HashString("self"), Endpoint: "sim://0"})
	n.Learn(pastry.Addr{})
	n.Learn(n.Self())
	if got := len(n.KnownNodes()); got != 0 {
		t.Fatalf("KnownNodes = %d after learning self/zero, want 0", got)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(0))
	n := net.Node(pastry.Addr{ID: ids.HashString("x"), Endpoint: "sim://0"})
	n.Handle("dup", func(pastry.Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	n.Handle("dup", func(pastry.Message) {})
}
