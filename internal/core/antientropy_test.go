package core_test

import (
	"fmt"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/ids"
)

// TestHealedPartitionMergesQuiescentOwners pins the chaos-checker finding
// that motivated owner anti-entropy: a partition splits the cloud, each
// side elects an owner for the same channel, the partition heals — and
// the channel then goes completely quiet. The epoch-fencing handshake
// rides on replication pushes and update broadcasts, both of which fire
// only when something changes, so before the maintenance-round
// anti-entropy pass the two owners coexisted forever on a quiescent
// channel (the chaos heal-partition scenario surfaced four of them after
// a two-hour convergence window). With the pass, the displaced owner
// routes its claim to the ring root every round and the merge must
// complete — one owner holding the union of both sides' subscribers.
func TestHealedPartitionMergesQuiescentOwners(t *testing.T) {
	url := "http://feeds.example.net/quiescent.xml"
	tc := newTestCloud(t, 16, nil)
	// Effectively never updates: nothing may ride on update dissemination.
	tc.host(url, 100000*time.Hour)

	owner := tc.ownerOf(url)
	if owner == nil {
		t.Fatal("no root for the channel")
	}
	// Alice subscribes through a node that will stay on the owner's side.
	var aliceEntry *core.Node
	for _, n := range tc.nodes {
		if n != owner {
			aliceEntry = n
			break
		}
	}
	aliceEntry.Subscribe("alice", url)
	tc.sim.RunFor(time.Hour)
	if info, ok := owner.Channel(url); !ok || !info.Owner || info.Subscribers != 1 {
		t.Fatalf("pre-partition owner state: %+v", info)
	}

	// Bisect: the owner, alice's entry, and the first half stay in group
	// 0; the rest — the minority side — move to group 1.
	var minority []*core.Node
	for i, n := range tc.nodes {
		if n == owner || n == aliceEntry || i < len(tc.nodes)/2 {
			continue
		}
		tc.net.Partition(n.Self().Endpoint, 1)
		minority = append(minority, n)
	}
	if len(minority) < 3 {
		t.Fatalf("minority side too small: %d nodes", len(minority))
	}

	// Bob subscribes from the minority side. The route toward the channel
	// root hits the cut, the failed sends evict the unreachable hops, and
	// the minority's closest node promotes itself owner. Retry while the
	// eviction converges.
	deadline := tc.sim.Now().Add(2 * time.Hour)
	var interim *core.Node
	for interim == nil && tc.sim.Now().Before(deadline) {
		for _, n := range minority {
			n.Subscribe("bob", url)
		}
		tc.sim.RunFor(10 * time.Minute)
		for _, n := range minority {
			if info, ok := n.Channel(url); ok && info.Owner {
				interim = n
			}
		}
	}
	if interim == nil {
		t.Fatal("minority side never elected an interim owner")
	}

	// Heal. From here the channel is quiescent: no subscribes, no
	// unsubscribes, no origin updates. Only the maintenance rounds run.
	tc.net.Heal()
	tc.sim.RunFor(4 * time.Hour) // 12 maintenance rounds at 20m

	var owners []*core.Node
	for _, n := range tc.nodes {
		if info, ok := n.Channel(url); ok && info.Owner {
			owners = append(owners, n)
		}
	}
	if len(owners) != 1 {
		for _, n := range owners {
			info, _ := n.Channel(url)
			t.Logf("owner claim: node %v epoch=%d subs=%d isRoot=%v claimsRouted=%d",
				n.Self(), info.OwnerEpoch, info.Subscribers,
				n.Overlay().IsRoot(ids.HashString(url)), n.Stats().OwnerClaimsRouted)
		}
		t.Fatalf("%d owners survive the heal on a quiescent channel, want exactly 1", len(owners))
	}
	info, _ := owners[0].Channel(url)
	if info.Subscribers != 2 {
		t.Fatalf("merged owner holds %d subscribers, want 2 (alice + bob)", info.Subscribers)
	}
}

// TestOwnerlessChannelReelectsOwner pins the second chaos-checker
// finding: channels with ZERO live owners. The fault callback promotes a
// replica only if it is the ring root at the instant a failed send
// surfaces the owner's death. With one replica, the callback misses
// whenever the dead owner's ring successor (the new root) is not that
// replica: the replica holds the state but is not root, the root holds
// nothing and never hears about the channel, and with no subscribe or
// update traffic the channel stays ownerless forever. The maintenance
// pass closes the gap: owners heartbeat their replicas every round, and
// a replica that has heard nothing for ownerReplicaStale rounds routes its
// state to the root, which adopts the claim and reconquers above it.
func TestOwnerlessChannelReelectsOwner(t *testing.T) {
	tc := newTestCloud(t, 16, func(i int, cfg *core.Config) {
		cfg.OwnerReplicas = 1
	})

	// Find a channel whose single replica (the owner's nearest ring
	// neighbor) differs from the owner's root-successor (next-closest
	// identifier to the channel): crashing that owner reproduces the
	// ownerless state. Both sets are pure overlay geometry, so the probe
	// touches no channel state.
	var (
		url              string
		owner, successor *core.Node
		replicaID        ids.ID
	)
	for k := 0; k < 256 && url == ""; k++ {
		candidate := fmt.Sprintf("http://feeds.example.net/orphan%d.xml", k)
		chid := ids.HashString(candidate)
		var o, s *core.Node
		for _, n := range tc.nodes {
			if n.Overlay().IsRoot(chid) {
				o = n
			}
		}
		if o == nil {
			continue
		}
		for _, n := range tc.nodes {
			if n == o {
				continue
			}
			if s == nil || n.Self().ID.Distance(chid).Cmp(s.Self().ID.Distance(chid)) < 0 {
				s = n
			}
		}
		neighbors := o.Overlay().Neighbors(1)
		if s == nil || len(neighbors) == 0 || neighbors[0].ID == s.Self().ID {
			continue
		}
		url, owner, successor, replicaID = candidate, o, s, neighbors[0].ID
	}
	if url == "" {
		t.Fatal("no channel with replica != root-successor among 256 candidates")
	}
	tc.host(url, 100000*time.Hour) // quiescent: re-election may ride on nothing else

	successor.Subscribe("alice", url)
	tc.sim.RunFor(time.Hour)
	if rec, ok := owner.Records(url); !ok || !rec.Owner || len(rec.Subscribers) != 1 {
		t.Fatalf("pre-crash owner state: %+v ok=%v", rec, ok)
	}
	var replica *core.Node
	for _, n := range tc.nodes {
		if n.Self().ID == replicaID {
			replica = n
		}
	}
	if rec, ok := replica.Records(url); !ok || !rec.Replica {
		t.Fatalf("expected replica at the owner's nearest neighbor, records: %+v ok=%v", rec, ok)
	}

	tc.net.Crash(owner.Self().Endpoint)
	owner.Stop()
	tc.sim.RunFor(3 * time.Hour) // staleness window (3 rounds at 20m) + margin

	var owners []*core.Node
	for _, n := range tc.nodes {
		if n == owner {
			continue
		}
		if rec, ok := n.Records(url); ok && rec.Owner {
			owners = append(owners, n)
		}
	}
	if len(owners) != 1 {
		if rec, ok := replica.Records(url); ok {
			t.Logf("replica state: owner=%v replica=%v epoch=%d isRoot=%v claims=%d",
				rec.Owner, rec.Replica, rec.OwnerEpoch,
				replica.Overlay().IsRoot(ids.HashString(url)),
				replica.Stats().OwnerClaimsRouted)
		}
		for _, n := range tc.nodes {
			if n == owner {
				continue
			}
			rec, ok := n.Records(url)
			t.Logf("node %v: ok=%v owner=%v replica=%v epoch=%d isRoot=%v",
				n.Self().Endpoint, ok, rec.Owner, rec.Replica, rec.OwnerEpoch,
				n.Overlay().IsRoot(ids.HashString(url)))
		}
		t.Fatalf("%d live owners after the crash, want exactly 1 (re-elected)", len(owners))
	}
	rec, _ := owners[0].Records(url)
	if _, ok := rec.Subscribers["alice"]; !ok {
		t.Fatalf("re-elected owner lost the subscriber; records: %+v", rec)
	}
}
