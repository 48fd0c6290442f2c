package corona_test

import (
	"context"
	"testing"
	"time"

	"corona"
	"corona/client"
)

// TestEntryNodeLeaseReroute is the lease acceptance scenario: two clients
// subscribe to one channel through different entry nodes, the first
// client's entry node is hard-killed, and both keep receiving — the
// second without any involvement (its entry is alive; the owner's lease
// bookkeeping routes around the dead gateway instead of black-holing),
// the first by failing over to the surviving node, where the SDK's
// Subscribe replay re-points the owner's entry record and the node's
// session keep-alive then refreshes the lease. Neither application calls
// Subscribe again.
func TestEntryNodeLeaseReroute(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	feedURL, stopOrigin := startFailoverOrigin(t, 500*time.Millisecond)
	defer stopOrigin()

	// A three-node ring with short entry-node leases, every node serving
	// the client protocol.
	var nodes []*corona.LiveNode
	var seeds []string
	for i := 0; i < 3; i++ {
		n, err := corona.StartLiveNode(corona.LiveConfig{
			Bind:          "127.0.0.1:0",
			ClientBind:    "127.0.0.1:0",
			Seeds:         seeds,
			PollInterval:  300 * time.Millisecond,
			NodeCountHint: 3,
			LeaseTTL:      time.Second,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		seeds = []string{n.Addr()}
		time.Sleep(100 * time.Millisecond)
	}

	// Find the owner with a probe subscription; the clients enter through
	// the two non-owner nodes so the kill hits only an entry node.
	if err := nodes[0].Subscribe("probe", feedURL); err != nil {
		t.Fatal(err)
	}
	ownerIdx := -1
	deadline := time.Now().Add(10 * time.Second)
	for ownerIdx < 0 && time.Now().Before(deadline) {
		for i, n := range nodes {
			if info, ok := n.Channel(feedURL); ok && info.Owner {
				ownerIdx = i
				break
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	if ownerIdx < 0 {
		t.Fatal("no node claimed ownership of the channel")
	}
	entryIdx := (ownerIdx + 1) % 3
	altIdx := (ownerIdx + 2) % 3

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Alice enters through the doomed node, with the surviving node as
	// her failover target. Each node refreshes its sessions' leases every
	// LeaseTTL/4; the fast ping loop only probes liveness.
	alice, err := client.Dial(ctx,
		[]string{nodes[entryIdx].ClientAddr(), nodes[altIdx].ClientAddr()},
		client.Options{Handle: "alice", RetryWait: 100 * time.Millisecond, PingInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	// Bob's entry node survives throughout.
	bob, err := client.Dial(ctx,
		[]string{nodes[altIdx].ClientAddr()},
		client.Options{Handle: "bob", RetryWait: 100 * time.Millisecond, PingInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()
	if err := alice.Subscribe(ctx, feedURL); err != nil {
		t.Fatal(err)
	}
	if err := bob.Subscribe(ctx, feedURL); err != nil {
		t.Fatal(err)
	}

	lastSeen := map[string]uint64{}
	waitNotify := func(c *client.Conn, who, why string, timeout time.Duration) {
		t.Helper()
		deadline := time.After(timeout)
		for {
			select {
			case n, ok := <-c.Notifications():
				if !ok {
					t.Fatalf("%s %s: notification stream closed", who, why)
				}
				if n.Version > lastSeen[who] {
					lastSeen[who] = n.Version
					return
				}
			case <-deadline:
				t.Fatalf("%s %s: no notification within %v", who, why, timeout)
			}
		}
	}
	waitNotify(alice, "alice", "before kill", 20*time.Second)
	waitNotify(bob, "bob", "before kill", 20*time.Second)

	// Hard-kill alice's entry node. Nobody calls Subscribe from here on.
	nodes[entryIdx].Kill()

	// Bob, attached to a live node, receives the next update without any
	// subscription replay — the dead entry node must not stall delivery.
	waitNotify(bob, "bob", "after kill", 20*time.Second)

	// Alice fails over to the surviving node; the SDK's Subscribe replay
	// re-points the owner's entry record and fresh versions flow again.
	waitNotify(alice, "alice", "after kill", 30*time.Second)
	if got := alice.Addr(); got != nodes[altIdx].ClientAddr() {
		t.Fatalf("alice serving addr = %s, want failover node %s", got, nodes[altIdx].ClientAddr())
	}
	// The owner applies the sessions' lease heartbeats, which the entry
	// nodes send every LeaseTTL/4 with no client frame, and the
	// application never changed its desired set.
	for deadline := time.Now().Add(5 * time.Second); nodes[ownerIdx].Stats().LeaseRefreshes == 0; {
		if time.Now().After(deadline) {
			t.Fatal("owner applied no lease refreshes")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if subs := alice.Subscriptions(); len(subs) != 1 || subs[0] != feedURL {
		t.Fatalf("alice desired subscriptions = %v", subs)
	}
}
