package client

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"corona/internal/clientproto"
)

// fakeBackend is a minimal clientproto.Backend: it records subscriptions,
// and its session table lets the test push notifications at logged-in
// clients.
type fakeBackend struct {
	name  string
	table *clientproto.SessionTable

	mu       sync.Mutex
	subs     map[string][]string // client -> urls, in arrival order
	nakSub   string              // nak any subscribe for this URL
	nakTimes int                 // ... only this many times (0 = forever)
}

func newFakeBackend(name string) *fakeBackend {
	return &fakeBackend{
		name:  name,
		table: clientproto.NewSessionTable(nil),
		subs:  make(map[string][]string),
	}
}

func (b *fakeBackend) Subscribe(client, url string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if url == b.nakSub {
		if b.nakTimes == 0 {
			return fmt.Errorf("no such channel")
		}
		b.nakTimes--
		if b.nakTimes == 0 {
			b.nakSub = ""
		}
		return fmt.Errorf("transient refusal")
	}
	b.subs[client] = append(b.subs[client], url)
	return nil
}

func (b *fakeBackend) Unsubscribe(client, url string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs[client] = append(b.subs[client], "-"+url)
	return nil
}

// RefreshLeases records nothing: these tests pin what the SDK sends,
// and the server's own lease refresh is no subscription replay.
func (b *fakeBackend) RefreshLeases(string, []string) {}

func (b *fakeBackend) LeaseCadence() time.Duration { return 10 * time.Millisecond }

func (b *fakeBackend) Info() clientproto.ServerInfo {
	return clientproto.ServerInfo{Node: b.name}
}

func (b *fakeBackend) subscribed(client string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.subs[client]...)
}

// notify pushes one notification at client through the session table,
// as a batch of one, reporting whether client held a session.
func (b *fakeBackend) notify(client string, n clientproto.Notification) bool {
	before := b.table.DeliveryStats().Undeliverable
	b.table.NotifyBatch([]string{client}, n.Channel, n.Version, n.Diff, n.At)
	return b.table.DeliveryStats().Undeliverable == before
}

// waitAttached waits for client's login. Each test logs one client in
// per backend, so any live binary session is client's.
func (b *fakeBackend) waitAttached(t *testing.T, client string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b.table.Count(clientproto.TransportBinary) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s: %s never logged in", b.name, client)
}

func startServer(t *testing.T, b *fakeBackend) *clientproto.Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := clientproto.ServeSessions(l, b, b.table, nil)
	t.Cleanup(func() { s.Close() })
	return s
}

func testOptions() Options {
	return Options{
		Handle:    "alice",
		RetryWait: 20 * time.Millisecond,
		// Pings off: tests drive liveness through explicit closes.
		PingInterval: -1,
	}
}

func TestDialSubscribeNotify(t *testing.T) {
	b := newFakeBackend("n1")
	s := startServer(t, b)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, []string{s.Addr()}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Subscribe(ctx, "http://x/f.xml"); err != nil {
		t.Fatal(err)
	}
	if got := b.subscribed("alice"); len(got) == 0 || got[0] != "http://x/f.xml" {
		t.Fatalf("server-side subs = %v", got)
	}

	at := time.Unix(1700000000, 0)
	b.notify("alice", clientproto.Notification{Client: "alice", Channel: "http://x/f.xml", Version: 7, Diff: "dd", At: at})
	select {
	case n := <-c.Notifications():
		if n.Client != "alice" || n.Channel != "http://x/f.xml" || n.Version != 7 || n.Diff != "dd" || !n.At.Equal(at) {
			t.Fatalf("notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification delivered")
	}

	// ServerInfo arrived with the login ack.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info, ok := c.ServerInfo(); ok {
			if info.Node != "n1" {
				t.Fatalf("ServerInfo.Node = %q", info.Node)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no ServerInfo received")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubscribeNak(t *testing.T) {
	b := newFakeBackend("n1")
	b.nakSub = "http://bad/f.xml"
	s := startServer(t, b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, []string{s.Addr()}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(ctx, "http://bad/f.xml"); err == nil {
		t.Fatal("refused subscribe returned nil")
	}
	if got := c.Subscriptions(); len(got) != 0 {
		t.Fatalf("refused URL stayed in desired set: %v", got)
	}
}

func TestDialFailsWhenAllDown(t *testing.T) {
	// A listener that is closed immediately: connection refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Dial(ctx, []string{addr}, testOptions()); err == nil {
		t.Fatal("Dial succeeded with no server")
	}
	if _, err := Dial(ctx, nil, testOptions()); err == nil {
		t.Fatal("Dial succeeded with no addresses")
	}
	if _, err := Dial(ctx, []string{addr}, Options{}); err == nil {
		t.Fatal("Dial succeeded without a handle")
	}
}

// TestDialReportsRefusedHello pins the fail-closed client hello: a node
// that answers the SDK's protocol byte with 0 (the reply to any version
// it does not speak) makes Dial fail with the refusal in its error.
func TestDialReportsRefusedHello(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			var hello [1]byte
			if _, err := io.ReadFull(conn, hello[:]); err == nil {
				conn.Write([]byte{0})
			}
			conn.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = Dial(ctx, []string{l.Addr().String()}, testOptions())
	if err == nil || !strings.Contains(err.Error(), "refused protocol version") {
		t.Fatalf("Dial against a refusing node: %v, want a refused-version error", err)
	}
}

func TestFailoverResumesAndReplaysSubscriptions(t *testing.T) {
	b1 := newFakeBackend("n1")
	b2 := newFakeBackend("n2")
	s1 := startServer(t, b1)
	s2 := startServer(t, b2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, []string{s1.Addr(), s2.Addr()}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(ctx, "http://x/a.xml"); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(ctx, "http://x/b.xml"); err != nil {
		t.Fatal(err)
	}
	if got := c.Addr(); got != s1.Addr() {
		t.Fatalf("serving addr = %s, want %s", got, s1.Addr())
	}

	// Kill node 1. The SDK must fail over to node 2, resume, and
	// replay both subscriptions, one Subscribe each, without the
	// application doing anything.
	s1.Close()
	b2.waitAttached(t, "alice")
	deadline := time.Now().Add(5 * time.Second)
	for {
		subs := b2.subscribed("alice")
		if len(subs) >= 2 {
			seen := map[string]bool{}
			for _, s := range subs {
				seen[s] = true
			}
			if !seen["http://x/a.xml"] || !seen["http://x/b.xml"] {
				t.Fatalf("replayed subs = %v", subs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriptions never replayed: %v", b2.subscribed("alice"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Addr(); got != s2.Addr() {
		t.Fatalf("after failover serving addr = %s, want %s", got, s2.Addr())
	}

	// Notifications keep flowing from the new node.
	b2.notify("alice", clientproto.Notification{Client: "alice", Channel: "http://x/a.xml", Version: 2})
	select {
	case n := <-c.Notifications():
		if n.Channel != "http://x/a.xml" || n.Version != 2 {
			t.Fatalf("post-failover notification = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification after failover")
	}

	// Subscribe during the failed-over state still works.
	if err := c.Subscribe(ctx, "http://x/c.xml"); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRetriesNakedSubscription(t *testing.T) {
	b1 := newFakeBackend("n1")
	b2 := newFakeBackend("n2")
	// The failover node refuses the replayed subscription twice
	// (a transient condition, e.g. mid-handoff), then accepts.
	b2.nakSub = "http://x/f.xml"
	b2.nakTimes = 2
	s1 := startServer(t, b1)
	s2 := startServer(t, b2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, []string{s1.Addr(), s2.Addr()}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(ctx, "http://x/f.xml"); err != nil {
		t.Fatal(err)
	}

	s1.Close()
	// The replay is naked twice; the watcher must keep retrying until
	// the node accepts, with no application involvement.
	deadline := time.Now().Add(5 * time.Second)
	for len(b2.subscribed("alice")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("naked replay never retried to success")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubscribeBlocksThroughReconnect(t *testing.T) {
	b1 := newFakeBackend("n1")
	b2 := newFakeBackend("n2")
	s1 := startServer(t, b1)
	s2 := startServer(t, b2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, []string{s1.Addr(), s2.Addr()}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Close the serving node, then immediately Subscribe: the call must
	// ride out the reconnect and land on node 2.
	s1.Close()
	if err := c.Subscribe(ctx, "http://x/f.xml"); err != nil {
		t.Fatalf("subscribe across reconnect: %v", err)
	}
	subs := b2.subscribed("alice")
	if len(subs) == 0 {
		t.Fatal("subscription did not land on the failover node")
	}
}

func TestNotificationOverflowDropsOldest(t *testing.T) {
	b := newFakeBackend("n1")
	s := startServer(t, b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	opts := testOptions()
	opts.NotifyBuffer = 1
	c, err := Dial(ctx, []string{s.Addr()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b.waitAttached(t, "alice")
	for v := uint64(1); v <= 3; v++ {
		b.notify("alice", clientproto.Notification{Client: "alice", Channel: "u", Version: v})
	}
	// The stream stays current: eventually version 3 is readable and two
	// drops are counted.
	deadline := time.Now().Add(5 * time.Second)
	for c.NotificationsDropped() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want 2", c.NotificationsDropped())
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case n := <-c.Notifications():
		if n.Version != 3 {
			t.Fatalf("surviving notification v%d, want v3", n.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nothing readable after overflow")
	}
}

func TestCloseEndsNotificationStream(t *testing.T) {
	b := newFakeBackend("n1")
	s := startServer(t, b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, []string{s.Addr()}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-c.Notifications():
		if ok {
			t.Fatal("notification after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Notifications channel not closed by Close")
	}
	if err := c.Subscribe(ctx, "http://x/f.xml"); err != ErrClosed {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}
