package simnet

import (
	"fmt"
	"math"
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
)

func twoEndpoints(t *testing.T, model LatencyModel) (*eventsim.Sim, *Network, *Endpoint, *[]pastry.Message) {
	t.Helper()
	sim := eventsim.New(9)
	net := New(sim, model)
	var got []pastry.Message
	net.Attach("sim://dst", func(m pastry.Message) { got = append(got, m) })
	src := net.Attach("sim://src", nil)
	return sim, net, src, &got
}

var dst = pastry.Addr{ID: ids.HashString("dst"), Endpoint: "sim://dst"}

func TestDeliveryAfterLatency(t *testing.T) {
	sim, _, src, got := twoEndpoints(t, FixedLatency(50*time.Millisecond))
	if err := src.Send(dst, pastry.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(49 * time.Millisecond)
	if len(*got) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	sim.RunFor(2 * time.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}
}

func TestSendToUnknownEndpointFails(t *testing.T) {
	_, _, src, _ := twoEndpoints(t, FixedLatency(0))
	err := src.Send(pastry.Addr{Endpoint: "sim://nowhere"}, pastry.Message{Type: "x"})
	if err == nil {
		t.Fatal("send to unknown endpoint succeeded")
	}
}

func TestCrashAndRestart(t *testing.T) {
	sim, net, src, got := twoEndpoints(t, FixedLatency(time.Millisecond))
	net.Crash("sim://dst")
	if err := src.Send(dst, pastry.Message{Type: "x"}); err == nil {
		t.Fatal("send to crashed host succeeded")
	}
	net.Restart("sim://dst")
	if err := src.Send(dst, pastry.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatalf("delivered %d after restart, want 1", len(*got))
	}
}

func TestCrashSuppressesInFlight(t *testing.T) {
	sim, net, src, got := twoEndpoints(t, FixedLatency(100*time.Millisecond))
	src.Send(dst, pastry.Message{Type: "x"})
	net.Crash("sim://dst") // message still in flight
	sim.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatal("in-flight message delivered to crashed host")
	}
}

func TestPartition(t *testing.T) {
	sim, net, src, got := twoEndpoints(t, FixedLatency(time.Millisecond))
	net.Partition("sim://dst", 2)
	if err := src.Send(dst, pastry.Message{Type: "x"}); err == nil {
		t.Fatal("send across partition succeeded")
	}
	net.Heal()
	if err := src.Send(dst, pastry.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatalf("delivered %d after heal, want 1", len(*got))
	}
}

func TestDropRateSilentLoss(t *testing.T) {
	sim, net, src, got := twoEndpoints(t, FixedLatency(0))
	net.SetDropRate(1.0)
	// Loss is silent: the send succeeds, nothing arrives.
	if err := src.Send(dst, pastry.Message{Type: "x"}); err != nil {
		t.Fatalf("lossy send errored: %v", err)
	}
	sim.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatal("message delivered despite 100% drop rate")
	}
	if net.Dropped() == 0 {
		t.Fatal("drop not counted")
	}
	net.SetDropRate(0)
	src.Send(dst, pastry.Message{Type: "x"})
	sim.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatal("delivery failed after loss disabled")
	}
}

func TestCountersAccumulate(t *testing.T) {
	sim, net, src, _ := twoEndpoints(t, FixedLatency(0))
	for i := 0; i < 10; i++ {
		src.Send(dst, pastry.Message{Type: "x"})
	}
	sim.RunFor(time.Second)
	if net.Delivered() != 10 {
		t.Fatalf("Delivered = %d, want 10", net.Delivered())
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	sim := eventsim.New(3)
	rng := sim.RNG("lat")
	u := UniformLatency{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Latency("a", "b", rng)
		if d < u.Min || d >= u.Max {
			t.Fatalf("latency %v outside [%v,%v)", d, u.Min, u.Max)
		}
	}
	// Degenerate range returns Min.
	bad := UniformLatency{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}
	if d := bad.Latency("a", "b", rng); d != 5*time.Millisecond {
		t.Fatalf("degenerate uniform = %v", d)
	}
}

func TestWANLatencyDistribution(t *testing.T) {
	sim := eventsim.New(4)
	rng := sim.RNG("wan")
	w := DefaultWAN()
	var total time.Duration
	var over300 int
	const n = 5000
	for i := 0; i < n; i++ {
		d := w.Latency("a", "b", rng)
		if d < w.Floor {
			t.Fatalf("latency %v below floor", d)
		}
		if d > 300*time.Millisecond {
			over300++
		}
		total += d
	}
	mean := total / n
	if mean < 30*time.Millisecond || mean > 150*time.Millisecond {
		t.Fatalf("WAN mean latency %v outside wide-area range", mean)
	}
	frac := float64(over300) / n
	if frac > 0.10 {
		t.Fatalf("%.1f%% of latencies exceed 300ms; tail too heavy", frac*100)
	}
	if math.IsNaN(float64(mean)) {
		t.Fatal("NaN latency")
	}
}

func TestLinkFaultExtraLatency(t *testing.T) {
	sim, net, src, got := twoEndpoints(t, FixedLatency(50*time.Millisecond))
	net.SetLinkFault("sim://src", "sim://dst", LinkFault{ExtraLatency: 200 * time.Millisecond})
	if err := src.Send(dst, pastry.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(249 * time.Millisecond)
	if len(*got) != 0 {
		t.Fatal("delivered before link ExtraLatency elapsed")
	}
	sim.RunFor(2 * time.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}

	// Clearing the fault restores the base latency.
	net.SetLinkFault("sim://src", "sim://dst", LinkFault{})
	if err := src.Send(dst, pastry.Message{Type: "y"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(51 * time.Millisecond)
	if len(*got) != 2 {
		t.Fatalf("delivered %d messages after clear, want 2", len(*got))
	}
}

func TestLinkFaultDropRate(t *testing.T) {
	sim, net, src, got := twoEndpoints(t, FixedLatency(time.Millisecond))
	net.SetLinkFault("sim://src", "sim://dst", LinkFault{DropRate: 1.0})
	for i := 0; i < 20; i++ {
		if err := src.Send(dst, pastry.Message{Type: "x"}); err != nil {
			t.Fatal(err) // like UDP loss: sender still sees success
		}
	}
	sim.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatalf("lossy link delivered %d messages, want 0", len(*got))
	}
	if net.Dropped() != 20 {
		t.Fatalf("Dropped() = %d, want 20", net.Dropped())
	}

	// The fault is directional: other links are clean.
	clean := net.Attach("sim://clean", nil)
	var cleanGot []pastry.Message
	net.Attach("sim://cleandst", func(m pastry.Message) { cleanGot = append(cleanGot, m) })
	for i := 0; i < 5; i++ {
		if err := clean.Send(pastry.Addr{ID: ids.HashString("cleandst"), Endpoint: "sim://cleandst"}, pastry.Message{Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Second)
	if len(cleanGot) != 5 {
		t.Fatalf("clean link delivered %d messages, want 5", len(cleanGot))
	}
}

func TestLinkFaultBothAndClearAll(t *testing.T) {
	sim, net, src, got := twoEndpoints(t, FixedLatency(time.Millisecond))
	back := net.Attach("sim://back", nil)
	var backGot []pastry.Message
	net.Attach("sim://src", func(m pastry.Message) { backGot = append(backGot, m) })
	net.SetLinkFaultBoth("sim://src", "sim://dst", LinkFault{DropRate: 1.0})

	if err := src.Send(dst, pastry.Message{Type: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := back.Send(pastry.Addr{ID: ids.HashString("src"), Endpoint: "sim://src"}, pastry.Message{Type: "b"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatalf("faulted forward link delivered %d, want 0", len(*got))
	}

	net.ClearLinkFaults()
	if err := src.Send(dst, pastry.Message{Type: "c"}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatalf("cleared link delivered %d, want 1", len(*got))
	}
}

// TestRingMatchesHandBuiltRing pins Ring to the loop every simulated ring
// used to write by hand: the same seed and rng label give the same node
// identifiers and endpoints, every node has joined, and a routed message
// lands on the node numerically closest to its key.
func TestRingMatchesHandBuiltRing(t *testing.T) {
	const size, seed, label = 32, 17, "ring-ids"

	handSim := eventsim.New(seed)
	handNet := New(handSim, FixedLatency(time.Millisecond))
	handRNG := handSim.RNG(label)
	want := make([]*pastry.Node, size)
	for i := range want {
		ep := fmt.Sprintf("sim://%d", i)
		var node *pastry.Node
		endpoint := handNet.Attach(ep, func(m pastry.Message) { node.Deliver(m) })
		node = pastry.NewNode(pastry.Addr{ID: ids.Random(handRNG), Endpoint: ep}, endpoint, handSim)
		want[i] = node
	}
	pastry.BuildStaticOverlay(want)

	sim := eventsim.New(seed)
	net := New(sim, FixedLatency(time.Millisecond))
	rng := sim.RNG(label)
	nodes := net.Ring(size, rng)
	if len(nodes) != size {
		t.Fatalf("Ring built %d nodes, want %d", len(nodes), size)
	}
	for i, n := range nodes {
		if n.Self() != want[i].Self() {
			t.Fatalf("node %d is %v, hand-built ring has %v", i, n.Self(), want[i].Self())
		}
		if !n.Joined() {
			t.Fatalf("node %d (%s) has not joined", i, n.Self().Endpoint)
		}
	}

	key := ids.Random(rng)
	closest := nodes[0]
	for _, n := range nodes[1:] {
		if n.Self().ID.Distance(key).Cmp(closest.Self().ID.Distance(key)) < 0 {
			closest = n
		}
	}
	var at *pastry.Node
	for _, n := range nodes {
		n := n
		n.Handle("test.ring", func(pastry.Message) { at = n })
	}
	if err := nodes[0].Route(key, "test.ring", nil); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if at == nil {
		t.Fatal("routed message never delivered")
	}
	if at != closest {
		t.Fatalf("key %v delivered at %v, want the closest node %v", key, at.Self(), closest.Self())
	}
}
