package core_test

import (
	"fmt"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/store"
)

// TestOwnerEpochHandshakeAfterRestart is the split-brain regression the
// owner-epoch handshake exists for. An owner journaling through a real
// store is hard-killed; during the outage an interim owner is promoted
// (and registers a brand-new subscriber); the old owner then restarts
// from its data directory while the interim still answers polls — the
// documented dual-owner window. The handshake must leave exactly one
// owner within a maintain pass, the restarted root must hold the union
// of the subscriber sets (the interim's new client survives the merge),
// and every client's notification versions must stay monotonic across
// the whole episode.
//
// Before the epoch handshake this test fails its exactly-one-owner
// assertion: the interim's handleReplicate discarded pushes from the
// restarted owner ("we are primary") and kept its isOwner flag until an
// IsRoot self-check that never ran.
func TestOwnerEpochHandshakeAfterRestart(t *testing.T) {
	url := "http://feeds.example.net/epoch.xml"
	tc := newTestCloud(t, 16, nil)
	tc.host(url, 10*time.Minute)

	owner := tc.ownerOf(url)
	if owner == nil {
		t.Fatal("no owner")
	}
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	owner.SetStateSink(st)

	// Alice enters through a node that survives the outage, so her
	// notifications flow throughout.
	var entry *core.Node
	for _, n := range tc.nodes {
		if n != owner {
			entry = n
			break
		}
	}
	entry.Subscribe("alice", url)
	tc.sim.RunFor(time.Hour)
	if live, _ := owner.Channel(url); !live.Owner || live.Subscribers != 1 {
		t.Fatalf("pre-crash owner state: %+v", live)
	}

	// Hard-kill the owner: protocol stops, store is abandoned unflushed,
	// the network drops it.
	owner.Stop()
	st.Abort()
	tc.net.Crash(owner.Self().Endpoint)

	// Ordinary protocol traffic (wedge updates, replication) hits the
	// dead owner, the replica detects the fault, evicts it, and promotes
	// itself — the interim owner.
	var interim *core.Node
	for attempt := 0; attempt < 30 && interim == nil; attempt++ {
		tc.sim.RunFor(10 * time.Minute)
		for _, n := range tc.nodes {
			if n == owner {
				continue
			}
			if info, ok := n.Channel(url); ok && info.Owner {
				interim = n
			}
		}
	}
	if interim == nil {
		t.Fatal("no interim owner promoted during the outage")
	}
	// A brand-new subscriber registers at the interim during the outage;
	// the merge must not lose it. (Retry past synchronous routing errors
	// toward the dead owner, which the ring still gossips.)
	for try := 0; try < 5; try++ {
		if interim.Subscribe("bob", url) == nil {
			break
		}
		// Synchronous routing error: the first hop was the dead owner
		// (leaf-set repair gossip keeps resurrecting it); the failed send
		// evicted it, so the immediate retry routes to the live root.
	}
	tc.sim.RunFor(time.Minute)
	if info, ok := interim.Channel(url); !ok || info.Subscribers != 2 {
		t.Fatalf("bob never registered at the interim owner: %+v", info)
	}
	// The interim answers polls: alice keeps receiving fresh versions.
	tc.sim.RunFor(time.Hour)
	tc.notify.mu.Lock()
	aliceDuringOutage := len(tc.notify.perUser["alice"])
	tc.notify.mu.Unlock()
	if aliceDuringOutage == 0 {
		t.Fatal("interim owner never notified the recovered subscriber")
	}

	// Restart the owner from its data directory: a fresh node incarnation
	// with the same overlay identity rejoins the ring through a live
	// seed, recovers the durable image, and reconciles — while the
	// interim still flies its isOwner flag.
	st2, recovered, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tc.net.Restart(owner.Self().Endpoint)
	overlay2 := tc.net.Node(owner.Self())
	cfg := core.DefaultConfig()
	cfg.NodeCount = 16
	cfg.PollInterval = 10 * time.Minute
	cfg.MaintenanceInterval = 20 * time.Minute
	cfg.OwnerReplicas = 2
	cfg.Seed = 4242
	fetcher := &core.OriginFetcher{Origin: tc.origin, Clock: tc.sim}
	restarted := core.NewNode(cfg, overlay2, tc.sim, fetcher, tc.notify, tc.sink)
	restarted.SetStateSink(st2)
	restarted.RestoreChannels(recovered)
	if err := overlay2.Join(entry.Self()); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	tc.sim.RunFor(time.Minute)
	if !overlay2.Joined() {
		t.Fatal("restarted node never completed the rejoin")
	}
	restarted.Start()
	restarted.ReconcileRecovered()

	// One maintain pass (which spans two poll rounds) must resolve the
	// handshake: exactly one owner across the live cloud.
	tc.sim.RunFor(20 * time.Minute)
	live := []*core.Node{restarted}
	for _, n := range tc.nodes {
		if n != owner {
			live = append(live, n)
		}
	}
	var owners []*core.Node
	for _, n := range live {
		if info, ok := n.Channel(url); ok && info.Owner {
			owners = append(owners, n)
		}
	}
	if len(owners) != 1 {
		for _, n := range owners {
			info, _ := n.Channel(url)
			t.Logf("owner claim: node %v epoch=%d subs=%d", n.Self(), info.OwnerEpoch, info.Subscribers)
		}
		t.Fatalf("%d owners survive the epoch handshake, want exactly 1", len(owners))
	}
	if owners[0] != restarted {
		t.Fatalf("surviving owner is %v, want the restarted root %v", owners[0].Self(), restarted.Self())
	}
	info, _ := restarted.Channel(url)
	if info.Subscribers != 2 {
		t.Fatalf("merged owner holds %d subscribers, want 2 (alice recovered + bob handed off)", info.Subscribers)
	}
	iinfo, _ := interim.Channel(url)
	if iinfo.Owner {
		t.Fatalf("interim owner still flies isOwner after the handshake: %+v", iinfo)
	}
	if info.OwnerEpoch < iinfo.OwnerEpoch {
		t.Fatalf("surviving owner epoch %d below demoted claim %d", info.OwnerEpoch, iinfo.OwnerEpoch)
	}

	// The merged owner keeps answering polls, and nobody's version stream
	// ever went backwards — across crash, interim, and merge.
	tc.sim.RunFor(time.Hour)
	tc.notify.mu.Lock()
	defer tc.notify.mu.Unlock()
	if got := len(tc.notify.perUser["alice"]); got <= aliceDuringOutage {
		t.Fatalf("no notifications after the merge (%d then, %d now)", aliceDuringOutage, got)
	}
	for client, versions := range tc.notify.perUser {
		for i := 1; i < len(versions); i++ {
			if versions[i] < versions[i-1] {
				t.Fatalf("%s saw version %d after %d (index %d of %v)", client, versions[i], versions[i-1], i, versions)
			}
		}
	}
}

// TestStaleOwnerDemotesOnCounterPush covers the other arm of the
// handshake: a node restored from a durable image claiming ownership at
// a LOWER epoch than the live owner's must be demoted by the live
// owner's counter-push when its stale claim arrives — stale-epoch
// replication is rejected on receipt, answered, and the claimant
// surrenders, instead of two owners coexisting until a self-check.
func TestStaleOwnerDemotesOnCounterPush(t *testing.T) {
	url := "http://feeds.example.net/stale.xml"
	tc := newTestCloud(t, 16, nil)
	tc.host(url, time.Hour)
	owner := tc.ownerOf(url)
	owner.Subscribe("alice", url)
	tc.sim.RunFor(time.Minute)
	before, _ := owner.Channel(url)
	if !before.Owner {
		t.Fatalf("owner state: %+v", before)
	}

	// A non-root node restores an image that claims ownership at epoch 0
	// (strictly below the live owner's) and pushes its claim on
	// reconcile... except reconcile hands off non-root claims. Force the
	// dual-claim shape the ROADMAP describes instead: restore an image
	// claiming ownership into a node, make it believe it owns, and let
	// its replication push meet the live owner.
	var stale *core.Node
	for _, n := range tc.nodes {
		if n != owner {
			stale = n
			break
		}
	}
	entry := stale.Self()
	stale.RestoreChannels([]store.Channel{{
		URL: url, Owner: true, Level: 1, OwnerEpoch: 0, SizeBytes: 4096,
		Subs: []store.Sub{{Client: "mallory", EntryID: entry.ID, EntryEndpoint: entry.Endpoint}},
	}})
	stale.ReconcileRecovered()
	tc.sim.RunFor(30 * time.Minute)

	if info, ok := stale.Channel(url); ok && info.Owner {
		t.Fatalf("stale claimant still owns after reconcile: %+v", info)
	}
	after, _ := owner.Channel(url)
	if !after.Owner {
		t.Fatalf("live owner lost ownership to a stale claim: %+v", after)
	}
	// The stale node's subscriber was handed off, not dropped.
	if after.Subscribers != 2 {
		t.Fatalf("live owner holds %d subscribers, want 2 (alice + handed-off mallory)", after.Subscribers)
	}
}

// TestLeaseRefreshRepointsEntry pins the failover half of entry-node
// leases: a lease refresh arriving through a different node re-points
// the subscriber's entry record at the owner — durably and on the
// replicas — with no Subscribe call.
func TestLeaseRefreshRepointsEntry(t *testing.T) {
	url := "http://feeds.example.net/lease.xml"
	tc := newTestCloud(t, 8, func(i int, cfg *core.Config) {
		cfg.LeaseTTL = 2 * time.Hour
	})
	tc.host(url, 48*time.Hour)
	owner := tc.ownerOf(url)
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	owner.SetStateSink(st)

	var first, second *core.Node
	for _, n := range tc.nodes {
		if n == owner {
			continue
		}
		if first == nil {
			first = n
		} else if second == nil {
			second = n
			break
		}
	}
	first.Subscribe("alice", url)
	tc.sim.RunFor(time.Second)

	// The client fails over to `second`, which heartbeats for it — no
	// Subscribe replay anywhere.
	second.RefreshLeases("alice", []string{url})
	tc.sim.RunFor(time.Second)

	var image *store.Channel
	for _, ch := range st.Channels() {
		if ch.URL == url {
			c := ch
			image = &c
		}
	}
	if image == nil || len(image.Subs) != 1 {
		t.Fatalf("durable image = %+v", image)
	}
	if got, want := image.Subs[0].EntryEndpoint, second.Self().Endpoint; got != want {
		t.Fatalf("durable entry = %s, want lease-refreshed entry %s", got, want)
	}
	if len(image.Leases) != 1 || image.Leases[0].Client != "alice" {
		t.Fatalf("durable leases = %+v, want alice marked", image.Leases)
	}
	if got := owner.Stats().LeaseRefreshes; got == 0 {
		t.Fatal("owner counted no lease refreshes")
	}
}

// TestLeaseSweepReroutesDeadEntry pins the proactive half: when a
// subscriber's entry node dies and nobody heartbeats for it, the owner's
// maintain pass re-points the entry record at a surviving node, and
// notifications resume without the client doing anything at all.
func TestLeaseSweepReroutesDeadEntry(t *testing.T) {
	url := "http://feeds.example.net/sweep.xml"
	tc := newTestCloud(t, 8, func(i int, cfg *core.Config) {
		cfg.LeaseTTL = 30 * time.Minute
	})
	tc.host(url, 10*time.Minute)
	owner := tc.ownerOf(url)
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	owner.SetStateSink(st)

	var entryNode *core.Node
	for _, n := range tc.nodes {
		if n != owner {
			entryNode = n
			break
		}
	}
	entryNode.Subscribe("alice", url)
	tc.sim.RunFor(30 * time.Minute)
	tc.notify.mu.Lock()
	beforeKill := len(tc.notify.perUser["alice"])
	tc.notify.mu.Unlock()
	if beforeKill == 0 {
		t.Fatal("no notifications before the entry-node kill")
	}

	// Hard-kill alice's entry node. Her client never re-subscribes and
	// nothing heartbeats for her: only the owner-side lease machinery can
	// save her notifications.
	entryNode.Stop()
	tc.net.Crash(entryNode.Self().Endpoint)
	tc.sim.RunFor(2 * time.Hour) // fault marks the lease; the sweep re-routes

	var image *store.Channel
	for _, ch := range st.Channels() {
		if ch.URL == url {
			c := ch
			image = &c
		}
	}
	if image == nil || len(image.Subs) != 1 {
		t.Fatalf("durable image = %+v", image)
	}
	if image.Subs[0].EntryEndpoint == entryNode.Self().Endpoint {
		t.Fatalf("entry record still points at the dead node %s", entryNode.Self().Endpoint)
	}
	if got := owner.Stats().LeaseReroutes; got == 0 {
		t.Fatal("owner counted no lease re-routes")
	}

	// Notifications resumed through the re-routed entry.
	tc.notify.mu.Lock()
	afterSweep := len(tc.notify.perUser["alice"])
	tc.notify.mu.Unlock()
	tc.sim.RunFor(time.Hour)
	tc.notify.mu.Lock()
	final := len(tc.notify.perUser["alice"])
	tc.notify.mu.Unlock()
	if final <= afterSweep {
		t.Fatalf("notifications did not resume after the re-route (%d then %d)", afterSweep, final)
	}
}

// TestLeaseTTLDisabledSkipsSweep pins the Config.LeaseTTL ≤ 0 contract:
// the maintain pass does no lease work at all — the dead node's entry
// record is never re-routed and LeaseReroutes stays zero — while
// handlePeerFault still force-expires entries at dead peers with a
// zero-time mark. The mark matters even with the sweep off: an operator
// restart with leases enabled repairs those entries on the first pass
// instead of waiting a full TTL.
func TestLeaseTTLDisabledSkipsSweep(t *testing.T) {
	for _, ttl := range []time.Duration{0, -time.Hour} {
		t.Run(fmt.Sprintf("ttl=%v", ttl), func(t *testing.T) {
			url := "http://feeds.example.net/nosweep.xml"
			tc := newTestCloud(t, 8, func(i int, cfg *core.Config) {
				cfg.LeaseTTL = ttl
			})
			tc.host(url, 10*time.Minute)
			owner := tc.ownerOf(url)
			var entryNode *core.Node
			for _, n := range tc.nodes {
				if n != owner {
					entryNode = n
					break
				}
			}
			entryNode.Subscribe("alice", url)
			tc.sim.RunFor(30 * time.Minute)

			entryNode.Stop()
			tc.net.Crash(entryNode.Self().Endpoint)
			tc.sim.RunFor(2 * time.Hour)

			rec, ok := owner.Records(url)
			if !ok || !rec.Owner {
				t.Fatalf("owner lost the channel: %+v", rec)
			}
			// The peer fault still planted the force-expiry mark...
			if mark, marked := rec.Leases["alice"]; !marked || !mark.IsZero() {
				t.Fatalf("dead entry not force-expired: leases = %+v", rec.Leases)
			}
			// ...but the disabled sweep never acted on it: the entry record
			// still names the dead node and no re-route was counted.
			if got := rec.Subscribers["alice"]; got.Endpoint != entryNode.Self().Endpoint {
				t.Fatalf("entry record moved to %s with the sweep disabled", got.Endpoint)
			}
			if st := owner.Stats(); st.LeaseReroutes != 0 {
				t.Fatalf("sweep re-routed %d entries with LeaseTTL = %v", st.LeaseReroutes, ttl)
			}
		})
	}
}
