package pastry

import (
	"fmt"
	"math/rand"
	"testing"

	"corona/internal/ids"
)

// addrN builds a deterministic test address.
func addrN(i int) Addr {
	return Addr{ID: ids.HashString(fmt.Sprintf("node-%d", i)), Endpoint: fmt.Sprintf("sim://%d", i)}
}

func TestRoutingTableSlotPlacement(t *testing.T) {
	self := ids.HashString("table-self")
	tbl := newRoutingTable(self)

	// A peer differing at digit 0 lands in row 0 at its digit-0 column.
	other := ids.WithDigit(self, 0, (ids.Digit(self, 0)+1)%16)
	a := Addr{ID: other, Endpoint: "x"}
	if !tbl.add(a) {
		t.Fatal("add failed")
	}
	got := tbl.get(0, ids.Digit(other, 0))
	if got.ID != other {
		t.Fatalf("entry not at expected slot")
	}
	// The same slot does not get replaced by add.
	b := Addr{ID: ids.WithDigit(other, 5, (ids.Digit(other, 5)+1)%16), Endpoint: "y"}
	if ids.CommonPrefix(self, b.ID) != 0 || ids.Digit(b.ID, 0) != ids.Digit(other, 0) {
		t.Skip("hash landed elsewhere; placement covered by other cases")
	}
	if tbl.add(b) {
		t.Fatal("add replaced an occupied slot")
	}
	// replace does.
	prev := tbl.replace(b)
	if prev.ID != other {
		t.Fatalf("replace returned %v", prev)
	}
}

func TestRoutingTableSelfRejected(t *testing.T) {
	self := ids.HashString("self-reject")
	tbl := newRoutingTable(self)
	if tbl.add(Addr{ID: self, Endpoint: "me"}) {
		t.Fatal("table accepted its own node")
	}
}

func TestRoutingTableRemove(t *testing.T) {
	self := ids.HashString("remove-self")
	tbl := newRoutingTable(self)
	peer := Addr{ID: ids.HashString("remove-peer"), Endpoint: "p"}
	tbl.add(peer)
	if !tbl.remove(peer.ID) {
		t.Fatal("remove failed")
	}
	if tbl.remove(peer.ID) {
		t.Fatal("double remove reported success")
	}
	found := 0
	tbl.each(func(Addr) { found++ })
	if found != 0 {
		t.Fatalf("%d entries left after remove", found)
	}
}

func TestLeafSetOrderingAndEviction(t *testing.T) {
	self := ids.HashString("leaf-self")
	ls := newLeafSet(self, 3)
	rng := rand.New(rand.NewSource(8))
	var members []Addr
	for i := 0; i < 50; i++ {
		a := Addr{ID: ids.Random(rng), Endpoint: fmt.Sprintf("m%d", i)}
		members = append(members, a)
		ls.add(a)
	}
	// The k closest clockwise members must be exactly the cw side.
	if len(ls.cw) != 3 || len(ls.ccw) != 3 {
		t.Fatalf("leaf set sides = %d/%d, want 3/3", len(ls.cw), len(ls.ccw))
	}
	for i := 1; i < len(ls.cw); i++ {
		if ls.cwDist(ls.cw[i].ID).Cmp(ls.cwDist(ls.cw[i-1].ID)) < 0 {
			t.Fatal("cw side not sorted by clockwise distance")
		}
	}
	// Every non-member must be farther clockwise than the last cw member
	// (or closer counter-clockwise than covered by ccw side).
	limit := ls.cwDist(ls.cw[len(ls.cw)-1].ID)
	inCW := map[ids.ID]bool{}
	for _, a := range ls.cw {
		inCW[a.ID] = true
	}
	for _, m := range members {
		if inCW[m.ID] {
			continue
		}
		if ls.cwDist(m.ID).Cmp(limit) < 0 {
			t.Fatalf("member %v closer clockwise than kept leaf", m)
		}
	}
}

func TestLeafSetClosestToKeyTieBreak(t *testing.T) {
	self := ids.HashString("tie-self")
	ls := newLeafSet(self, 4)
	a := Addr{ID: ids.HashString("tie-a"), Endpoint: "a"}
	ls.add(a)
	// A key exactly at a member's ID resolves to that member.
	got, isSelf := ls.closestToKey(a.ID)
	if isSelf || got.ID != a.ID {
		t.Fatalf("closestToKey at member = %v (self=%v)", got, isSelf)
	}
	// A key at self resolves to self.
	_, isSelf = ls.closestToKey(self)
	if !isSelf {
		t.Fatal("closestToKey(self) should be self")
	}
}

func TestLeafSetRemoveAndContains(t *testing.T) {
	self := ids.HashString("lsr-self")
	ls := newLeafSet(self, 2)
	a := Addr{ID: ids.HashString("lsr-a"), Endpoint: "a"}
	ls.add(a)
	if !ls.contains(a.ID) {
		t.Fatal("contains failed")
	}
	if !ls.remove(a.ID) {
		t.Fatal("remove failed")
	}
	if ls.contains(a.ID) {
		t.Fatal("member present after remove")
	}
	if ls.remove(a.ID) {
		t.Fatal("double remove succeeded")
	}
}

func TestLeafSetIgnoresSelfAndDuplicates(t *testing.T) {
	self := ids.HashString("dup-self")
	ls := newLeafSet(self, 4)
	if ls.add(Addr{ID: self, Endpoint: "me"}) {
		t.Fatal("leaf set accepted self")
	}
	a := Addr{ID: ids.HashString("dup-a"), Endpoint: "a"}
	if !ls.add(a) {
		t.Fatal("first add failed")
	}
	if ls.add(a) {
		t.Fatal("duplicate add reported change")
	}
	if got := len(ls.all()); got != 1 {
		t.Fatalf("all() = %d members, want 1", got)
	}
}

// TestLeafSetCoversWholeSmallRing: while the ring has at most 2k nodes the
// two sides of the leaf set overlap, hold every other node, and cover
// every key, the arcs either side of self included. In a larger ring only
// the span of the leaf set is covered.
func TestLeafSetCoversWholeSmallRing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k = 4
	for size := 2; size <= 2*k; size++ {
		ls := newLeafSet(ids.Random(rng), k)
		for i := 1; i < size; i++ {
			ls.add(Addr{ID: ids.Random(rng), Endpoint: fmt.Sprintf("m%d", i)})
		}
		for j := 0; j < 64; j++ {
			if key := ids.Random(rng); !ls.coversKey(key) {
				t.Fatalf("ring of %d: key %v not covered by a leaf set holding every node", size, key)
			}
		}
	}
	ls := newLeafSet(ids.Random(rng), k)
	for i := 1; i < 50; i++ {
		ls.add(Addr{ID: ids.Random(rng), Endpoint: fmt.Sprintf("m%d", i)})
	}
	uncovered := 0
	for j := 0; j < 64; j++ {
		if !ls.coversKey(ids.Random(rng)) {
			uncovered++
		}
	}
	if uncovered == 0 {
		t.Fatal("a leaf set of 8 in a ring of 50 covered 64 random keys")
	}
}

// TestNextHopInCoveredRingAllocatesNothing pins the leaf-set fast path:
// in a ring the leaf set covers — every corona-load cluster — each Route
// and each owner's IsRoot self-check resolves through closestToKey, which
// must not build a member list per call.
func TestNextHopInCoveredRingAllocatesNothing(t *testing.T) {
	n := NewNode(addrN(0), nil, nil)
	for i := 1; i < 12; i++ {
		n.Learn(addrN(i))
	}
	var keys []ids.ID
	for i := 0; i < 64; i++ {
		if key := ids.HashString(fmt.Sprintf("covered-key-%d", i)); n.leaves.coversKey(key) {
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		t.Fatal("no sampled key falls inside the leaf set's span")
	}
	var roots, remote int
	allocs := testing.AllocsPerRun(20, func() {
		for _, key := range keys {
			if _, more := n.nextHop(key); more {
				remote++
			} else {
				roots++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("nextHop over %d covered keys allocates %.1f times per pass, want 0", len(keys), allocs)
	}
	if roots == 0 || remote == 0 {
		t.Fatalf("covered keys resolved %d times to self and %d to a member; want both", roots, remote)
	}
}

// TestKnownNodesSortedDistinct pins KnownNodes' contract without its old
// map: every peer of the leaf set and the routing table exactly once,
// sorted by identifier, in one allocation (the result).
func TestKnownNodesSortedDistinct(t *testing.T) {
	n := NewNode(addrN(0), nil, nil)
	want := map[ids.ID]bool{}
	for i := 1; i < 40; i++ {
		n.Learn(addrN(i))
	}
	for _, a := range n.leaves.all() {
		want[a.ID] = true
	}
	n.table.each(func(a Addr) { want[a.ID] = true })

	got := n.KnownNodes()
	if len(got) != len(want) {
		t.Fatalf("KnownNodes returned %d peers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if !want[a.ID] {
			t.Fatalf("KnownNodes returned %v, which is in neither leaf set nor table", a)
		}
		if i > 0 && got[i-1].ID.Cmp(a.ID) >= 0 {
			t.Fatalf("KnownNodes not strictly sorted at %d: %v then %v", i, got[i-1].ID, a.ID)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { n.KnownNodes() }); allocs != 1 {
		t.Fatalf("KnownNodes allocates %.1f times per call, want 1 (the result)", allocs)
	}
}

// TestLeafReachAndGeneration covers the accessors poll slots are ranked
// against: a small ring is held whole by every leaf set, a larger one
// reports its two farthest leaves, and the generation advances with
// every change of routing state and only then.
func TestLeafReachAndGeneration(t *testing.T) {
	n := NewNode(addrN(0), dropTransport{}, nil)
	if _, _, whole := n.LeafReach(); !whole {
		t.Fatal("a lone node's leaf set must hold the whole ring")
	}
	g := n.Generation()
	for i := 1; i <= 4; i++ {
		n.Learn(addrN(i))
	}
	if _, _, whole := n.LeafReach(); !whole {
		t.Fatal("a 5-node ring must fit in a 4+4 leaf set")
	}
	if n.Generation() == g {
		t.Fatal("Learn of new peers did not advance the generation")
	}
	g = n.Generation()
	n.Learn(addrN(1))
	if n.Generation() != g {
		t.Fatal("re-learning a known peer advanced the generation")
	}
	for i := 5; i < 40; i++ {
		n.Learn(addrN(i))
	}
	ccw, cw, whole := n.LeafReach()
	if whole {
		t.Fatal("a 40-node ring cannot fit in a 4+4 leaf set")
	}
	if ccw != n.leaves.ccw[len(n.leaves.ccw)-1].ID || cw != n.leaves.cw[len(n.leaves.cw)-1].ID {
		t.Fatal("LeafReach does not name the farthest leaf on each side")
	}
	g = n.Generation()
	n.peerFailed(n.leaves.cw[0])
	if n.Generation() == g {
		t.Fatal("evicting a leaf did not advance the generation")
	}
}

// dropTransport accepts every message and delivers none.
type dropTransport struct{}

func (dropTransport) Send(Addr, Message) error { return nil }
