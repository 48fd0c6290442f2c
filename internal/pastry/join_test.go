package pastry_test

import (
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
)

// joinPair builds a bootstrapped seed and a joiner that has not joined,
// 2 ms apart on a simnet.
func joinPair(t *testing.T) (*eventsim.Sim, *simnet.Network, *pastry.Node, *pastry.Node) {
	t.Helper()
	sim := eventsim.New(5)
	net := simnet.New(sim, simnet.FixedLatency(2*time.Millisecond))
	seed := net.Node(pastry.Addr{ID: ids.HashString("seed"), Endpoint: "sim://seed"})
	joiner := net.Node(pastry.Addr{ID: ids.HashString("joiner"), Endpoint: "sim://joiner"})
	seed.Bootstrap()
	return sim, net, seed, joiner
}

// joinWait starts a JoinWait with a 1 s re-send whose outcome lands on
// the returned channel. The channel holds one value: a second call of the
// callback would block the simulator and fail the test by deadlock.
func joinWait(n *pastry.Node, seed pastry.Addr, timeout time.Duration) <-chan bool {
	c := make(chan bool, 1)
	n.JoinWait(seed, time.Second, timeout, func(joined bool) { c <- joined })
	return c
}

// result reads the wait's value if it is in, without blocking.
func result(c <-chan bool) (joined, in bool) {
	select {
	case v := <-c:
		return v, true
	default:
		return false, false
	}
}

// stepUntilResult runs the simulator one event at a time until the wait
// yields, and returns its value.
func stepUntilResult(t *testing.T, sim *eventsim.Sim, c <-chan bool) bool {
	t.Helper()
	for {
		if v, in := result(c); in {
			return v
		}
		if !sim.Step() {
			t.Fatalf("no events left at %v and the wait has not yielded", sim.Elapsed())
		}
	}
}

// joinDone is when a join through a seed 2 ms away completes: the join
// goes out and its reply comes back, then the joiner's announcement does
// the same round trip.
const joinDone = 8 * time.Millisecond

// TestJoinWaitYieldsOnReply: the wait yields true in the event that
// delivers the seed's answer to the joiner's announcement, with no
// further clock advance, and the seed knows the joiner by then; a
// duplicate join reply is harmless, and a wait on a joined node yields
// at once.
func TestJoinWaitYieldsOnReply(t *testing.T) {
	sim, _, seed, joiner := joinPair(t)
	wait := joinWait(joiner, seed.Self(), 10*time.Second)
	if !stepUntilResult(t, sim, wait) {
		t.Fatal("wait yielded false")
	}
	if got := sim.Elapsed(); got != joinDone {
		t.Fatalf("wait yielded at %v, want %v (the announcement's answer)", got, joinDone)
	}
	if !joiner.Joined() {
		t.Fatal("wait yielded true on a node that has not joined")
	}
	if known := seed.KnownNodes(); len(known) != 1 || known[0] != joiner.Self() {
		t.Fatalf("seed knows %v when the join completes, want the joiner", known)
	}

	if err := joiner.Join(seed.Self()); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second) // a second join reply lands on a joined node
	if v, in := result(joinWait(joiner, seed.Self(), 10*time.Second)); !in || !v {
		t.Fatalf("wait on a joined node: value %v, yielded %v; want true at once", v, in)
	}
}

// TestJoinWaitResendsAfterLostReply: with the first join reply lost, the
// join goes out again 1 s after the first, and that join completes.
func TestJoinWaitResendsAfterLostReply(t *testing.T) {
	sim, net, seed, joiner := joinPair(t)
	net.SetLinkFault(seed.Self().Endpoint, joiner.Self().Endpoint, simnet.LinkFault{DropRate: 1})
	wait := joinWait(joiner, seed.Self(), 10*time.Second)
	sim.RunFor(500 * time.Millisecond)
	if _, in := result(wait); in || joiner.Joined() {
		t.Fatal("joined although every reply was dropped")
	}
	net.SetLinkFault(seed.Self().Endpoint, joiner.Self().Endpoint, simnet.LinkFault{})
	if !stepUntilResult(t, sim, wait) {
		t.Fatal("wait yielded false")
	}
	if got, want := sim.Elapsed(), time.Second+joinDone; got != want {
		t.Fatalf("wait yielded at %v, want %v (the re-sent join's reply)", got, want)
	}
}

// TestJoinWaitTimesOut: with no reply at all, the wait yields false at
// its deadline and leaves nothing scheduled behind it.
func TestJoinWaitTimesOut(t *testing.T) {
	sim, net, seed, joiner := joinPair(t)
	net.SetLinkFault(seed.Self().Endpoint, joiner.Self().Endpoint, simnet.LinkFault{DropRate: 1})
	const timeout = 3500 * time.Millisecond
	wait := joinWait(joiner, seed.Self(), timeout)
	if stepUntilResult(t, sim, wait) {
		t.Fatal("wait yielded true with every reply dropped")
	}
	if got := sim.Elapsed(); got != timeout {
		t.Fatalf("wait yielded at %v, want the %v deadline", got, timeout)
	}
	sim.Drain(100)
	if got := sim.Elapsed(); got != timeout {
		t.Fatalf("events ran on to %v after the deadline", got)
	}
}

// TestJoinCompletesPastSilentMember: a member that never answers the
// joiner's announcement holds the join up only until the first re-send
// tick, where the join completes instead of being sent again.
func TestJoinCompletesPastSilentMember(t *testing.T) {
	sim := eventsim.New(6)
	net := simnet.New(sim, simnet.FixedLatency(2*time.Millisecond))
	ring := net.Ring(2, sim.RNG("ring-ids"))
	joiner := net.Node(pastry.Addr{ID: ids.HashString("joiner"), Endpoint: "sim://joiner"})
	net.SetLinkFault(joiner.Self().Endpoint, ring[1].Self().Endpoint, simnet.LinkFault{DropRate: 1})
	wait := joinWait(joiner, ring[0].Self(), 10*time.Second)
	if !stepUntilResult(t, sim, wait) {
		t.Fatal("wait yielded false")
	}
	if got := sim.Elapsed(); got != time.Second {
		t.Fatalf("wait yielded at %v, want the first re-send tick at 1s", got)
	}
}
