package corona_test

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"corona"
	"corona/client"
	"corona/internal/feed"
	"corona/internal/webserver"
)

// startFailoverOrigin serves one generator-backed feed over real HTTP
// (an external-test copy of live_test.go's helper).
func startFailoverOrigin(t *testing.T, updateEvery time.Duration) (feedURL string, stop func()) {
	t.Helper()
	origin := webserver.NewOrigin()
	const path = "/feed/failover.xml"
	origin.Host(webserver.ChannelConfig{
		URL:       path,
		Process:   webserver.PeriodicProcess{Origin: time.Now(), Interval: updateEvery},
		Generator: feed.NewGenerator(path, 23),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: webserver.NewHTTPOrigin(origin, time.Now)}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String() + path, func() { srv.Close() }
}

// TestClientFailover is the client-side acceptance scenario for the SDK:
// a client holding two node addresses subscribes through its entry node,
// the entry node is hard-killed, and the client keeps receiving update
// notifications by resuming against the second node — the application
// never re-calls Subscribe; the SDK's reconnect-time Subscribe replay
// re-points the channel owner at the surviving node.
func TestClientFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	feedURL, stopOrigin := startFailoverOrigin(t, 500*time.Millisecond)
	defer stopOrigin()

	// A three-node ring, every node serving the client protocol.
	var nodes []*corona.LiveNode
	var seeds []string
	for i := 0; i < 3; i++ {
		n, err := corona.StartLiveNode(corona.LiveConfig{
			Bind:          "127.0.0.1:0",
			ClientBind:    "127.0.0.1:0",
			Seeds:         seeds,
			PollInterval:  300 * time.Millisecond,
			NodeCountHint: 3,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		seeds = []string{n.Addr()}
		time.Sleep(100 * time.Millisecond)
	}

	// Find the channel's owner with a probe subscription, then pick the
	// two NON-owner nodes as the client's entry and failover targets, so
	// the kill exercises client failover in isolation (owner failover is
	// TestLiveNodeRestartRecovery's job).
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
	failIdx := (ownerIdx + 2) % 3

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	conn, err := client.Dial(ctx,
		[]string{nodes[entryIdx].ClientAddr(), nodes[failIdx].ClientAddr()},
		client.Options{Handle: "alice", RetryWait: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe(ctx, feedURL); err != nil {
		t.Fatal(err)
	}

	// First notifications arrive through the entry node.
	var lastVersion uint64
	waitNotify := func(why string, timeout time.Duration) {
		t.Helper()
		deadline := time.After(timeout)
		for {
			select {
			case n, ok := <-conn.Notifications():
				if !ok {
					t.Fatalf("%s: notification stream closed", why)
				}
				if n.Channel != feedURL {
					t.Fatalf("%s: notification for %q", why, n.Channel)
				}
				if n.Version > lastVersion {
					lastVersion = n.Version
					return
				}
			case <-deadline:
				t.Fatalf("%s: no notification within %v", why, timeout)
			}
		}
	}
	waitNotify("before kill", 20*time.Second)
	if got := conn.Addr(); got != nodes[entryIdx].ClientAddr() {
		t.Fatalf("serving addr = %s, want entry node %s", got, nodes[entryIdx].ClientAddr())
	}

	// Hard-kill the entry node. No Subscribe call from here on.
	nodes[entryIdx].Kill()

	// The client must resume against the failover node and keep
	// receiving fresh versions.
	preFailover := lastVersion
	waitNotify("after kill", 30*time.Second)
	if lastVersion <= preFailover {
		t.Fatalf("no fresh version after failover: %d -> %d", preFailover, lastVersion)
	}
	if got := conn.Addr(); got != nodes[failIdx].ClientAddr() {
		t.Fatalf("after failover serving addr = %s, want %s", got, nodes[failIdx].ClientAddr())
	}
	// And the subscription set was replayed by the SDK, not re-requested
	// by the application: the desired set is unchanged.
	if subs := conn.Subscriptions(); len(subs) != 1 || subs[0] != feedURL {
		t.Fatalf("desired subscriptions after failover = %v", subs)
	}
}

// TestLiveStatsSurfaceStoreHealth checks the observability satellite: a
// durable node's WAL size and records-since-snapshot are visible through
// LiveNode.Stats(), and an in-memory node reports the store disabled.
func TestLiveStatsSurfaceStoreHealth(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	durable, err := corona.StartLiveNode(corona.LiveConfig{
		Bind:         "127.0.0.1:0",
		PollInterval: time.Minute,
		DataDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	if err := durable.Subscribe("alice", "http://x/feed.xml"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := durable.Stats()
		if !st.Store.Enabled {
			t.Fatal("durable node reports store disabled")
		}
		if st.Store.Err != "" {
			t.Fatalf("store error: %s", st.Store.Err)
		}
		if st.Store.RecordsSinceSnapshot > 0 && st.Store.WALBytes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store stats never reflected the subscription: %+v", st.Store)
		}
		time.Sleep(10 * time.Millisecond)
	}

	mem, err := corona.StartLiveNode(corona.LiveConfig{
		Bind:         "127.0.0.1:0",
		PollInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if st := mem.Stats(); st.Store.Enabled || st.Store.WALBytes != 0 {
		t.Fatalf("in-memory node store stats = %+v", st.Store)
	}
}
