package clientproto

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeBackend records subscription calls.
type fakeBackend struct {
	mu        sync.Mutex
	subs      []string
	unsubs    []string
	leases    []string
	failSub   bool
	failLease bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{}
}

func (b *fakeBackend) Subscribe(client, url string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failSub {
		return fmt.Errorf("overlay down")
	}
	b.subs = append(b.subs, client+" "+url)
	return nil
}

func (b *fakeBackend) Unsubscribe(client, url string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.unsubs = append(b.unsubs, client+" "+url)
	return nil
}

func (b *fakeBackend) RefreshLeases(client string, urls []string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failLease {
		return fmt.Errorf("overlay down")
	}
	for _, u := range urls {
		b.leases = append(b.leases, client+" "+u)
	}
	return nil
}

func (b *fakeBackend) Info() ServerInfo {
	return ServerInfo{
		Node:  "overlay:1",
		Peers: []string{"overlay:2"},
		Store: StoreInfo{Enabled: true, Generation: 2, WALBytes: 512, RecordsSinceSnapshot: 5},
	}
}

// notify delivers one update to client through the server's session
// table, as a batch of one, reporting whether client held a session.
func notify(s *Server, client, channel string, version uint64, at time.Time) bool {
	before := s.table.DeliveryStats().Undeliverable
	s.table.NotifyBatch([]string{client}, channel, version, "d", at)
	return s.table.DeliveryStats().Undeliverable == before
}

// testClient is a minimal raw-protocol client for server tests.
type testClient struct {
	t    *testing.T
	conn net.Conn
}

func dialServer(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := Hello(conn); err != nil {
		t.Fatal(err)
	}
	return &testClient{t: t, conn: conn}
}

func (c *testClient) send(f Frame) {
	c.t.Helper()
	if err := WriteFrame(c.conn, f); err != nil {
		c.t.Fatal(err)
	}
}

func (c *testClient) read() Frame {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := ReadFrame(c.conn)
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	return f
}

func startServer(t *testing.T, b Backend) *Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := ServeSessions(l, b, NewSessionTable(nil), nil)
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerLoginSubscribeNotify(t *testing.T) {
	b := newFakeBackend()
	s := startServer(t, b)
	c := dialServer(t, s.Addr())
	defer c.conn.Close()

	c.send(&Login{ReqID: 1, Handle: "alice"})
	ack, ok := c.read().(*Ack)
	if !ok || ack.ReqID != 1 {
		t.Fatalf("login reply = %#v", ack)
	}
	if len(ack.Token) == 0 {
		t.Fatal("login ack carried no resume token")
	}
	si, ok := c.read().(*ServerInfo)
	if !ok || si.Node != "overlay:1" || !si.Store.Enabled || si.Store.WALBytes != 512 {
		t.Fatalf("post-login ServerInfo = %#v", si)
	}

	c.send(&Subscribe{ReqID: 2, URL: "http://x/f.xml"})
	if a, ok := c.read().(*Ack); !ok || a.ReqID != 2 {
		t.Fatalf("subscribe reply = %#v", a)
	}
	b.mu.Lock()
	subs := append([]string(nil), b.subs...)
	b.mu.Unlock()
	if len(subs) != 1 || subs[0] != "alice http://x/f.xml" {
		t.Fatalf("backend subs = %v", subs)
	}

	// A notification delivered through the session table arrives as a
	// frame.
	at := time.Unix(1700000000, 0)
	if !notify(s, "alice", "http://x/f.xml", 3, at) {
		t.Fatal("alice has no session after login")
	}
	n, ok := c.read().(*Notify)
	if !ok || n.Channel != "http://x/f.xml" || n.Version != 3 || n.Diff != "d" || !n.At.Equal(at) {
		t.Fatalf("notify frame = %#v", n)
	}

	c.send(&Unsubscribe{ReqID: 3, URL: "http://x/f.xml"})
	if a, ok := c.read().(*Ack); !ok || a.ReqID != 3 {
		t.Fatalf("unsubscribe reply = %#v", a)
	}

	// Ping is acked and refreshes ServerInfo.
	c.send(&Ping{ReqID: 4})
	if a, ok := c.read().(*Ack); !ok || a.ReqID != 4 {
		t.Fatalf("ping reply = %#v", a)
	}
	if _, ok := c.read().(*ServerInfo); !ok {
		t.Fatal("no ServerInfo after ping")
	}
}

func TestServerRequiresLogin(t *testing.T) {
	b := newFakeBackend()
	s := startServer(t, b)
	c := dialServer(t, s.Addr())
	defer c.conn.Close()
	c.send(&Subscribe{ReqID: 1, URL: "http://x/f.xml"})
	nak, ok := c.read().(*Nak)
	if !ok || nak.ReqID != 1 {
		t.Fatalf("reply = %#v, want Nak", nak)
	}
}

func TestServerNaksFailedSubscribe(t *testing.T) {
	b := newFakeBackend()
	b.failSub = true
	s := startServer(t, b)
	c := dialServer(t, s.Addr())
	defer c.conn.Close()
	c.send(&Login{ReqID: 1, Handle: "alice"})
	c.read() // ack
	c.read() // server info
	c.send(&Subscribe{ReqID: 2, URL: "http://x/f.xml"})
	nak, ok := c.read().(*Nak)
	if !ok || nak.Reason != "overlay down" {
		t.Fatalf("reply = %#v, want Nak(overlay down)", nak)
	}
}

func TestServerResumeTokenDisplacesStaleSession(t *testing.T) {
	b := newFakeBackend()
	s := startServer(t, b)

	c1 := dialServer(t, s.Addr())
	defer c1.conn.Close()
	c1.send(&Login{ReqID: 1, Handle: "alice"})
	ack := c1.read().(*Ack)
	token := ack.Token
	c1.read() // server info

	// A second login without the token is refused.
	c2 := dialServer(t, s.Addr())
	defer c2.conn.Close()
	c2.send(&Login{ReqID: 1, Handle: "alice"})
	if nak, ok := c2.read().(*Nak); !ok {
		t.Fatalf("tokenless second login got %#v, want Nak", nak)
	}

	// With the token it displaces the stale session.
	c3 := dialServer(t, s.Addr())
	defer c3.conn.Close()
	c3.send(&Login{ReqID: 1, Handle: "alice", ResumeToken: token})
	ack3, ok := c3.read().(*Ack)
	if !ok {
		t.Fatalf("resume login refused")
	}
	if string(ack3.Token) != string(token) {
		t.Fatal("resume changed the token")
	}
	c3.read() // server info

	// The displaced connection is closed by the server.
	c1.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := ReadFrame(c1.conn); err != nil {
			break
		}
	}

	// The new session receives notifications.
	if !notify(s, "alice", "u", 1, time.Time{}) {
		t.Fatal("alice has no session after displacement")
	}
	if n, ok := c3.read().(*Notify); !ok || n.Version != 1 {
		t.Fatalf("notify after displacement = %#v", n)
	}
}

func TestServerDropsMalformedStream(t *testing.T) {
	b := newFakeBackend()
	s := startServer(t, b)
	c := dialServer(t, s.Addr())
	defer c.conn.Close()
	// An unknown frame type drops the connection.
	c.conn.Write([]byte{0, 0, 0, 2, 0x7F, 0x00})
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(c.conn); err == nil {
		t.Fatal("server kept a malformed stream alive")
	}
}

// TestServerLeaseRefresh covers the lease heartbeat frame: a
// logged-in client's refresh fans out to the backend and is acked, a
// refresh before login is naked, and a backend failure naks with its
// reason (the SDK's cue to fall back to Subscribe replay).
func TestServerLeaseRefresh(t *testing.T) {
	b := newFakeBackend()
	s := startServer(t, b)
	c := dialServer(t, s.Addr())
	defer c.conn.Close()

	c.send(&LeaseRefresh{ReqID: 1, URLs: []string{"http://x/f.xml"}})
	if nak, ok := c.read().(*Nak); !ok || nak.ReqID != 1 {
		t.Fatalf("pre-login lease refresh reply = %#v", nak)
	}

	c.send(&Login{ReqID: 2, Handle: "alice"})
	if a, ok := c.read().(*Ack); !ok || a.ReqID != 2 {
		t.Fatalf("login reply = %#v", a)
	}
	c.read() // ServerInfo

	c.send(&LeaseRefresh{ReqID: 3, URLs: []string{"http://x/f.xml", "http://x/g.xml"}})
	if a, ok := c.read().(*Ack); !ok || a.ReqID != 3 {
		t.Fatalf("lease refresh reply = %#v", a)
	}
	b.mu.Lock()
	leases := append([]string(nil), b.leases...)
	b.mu.Unlock()
	if len(leases) != 2 || leases[0] != "alice http://x/f.xml" || leases[1] != "alice http://x/g.xml" {
		t.Fatalf("backend leases = %v", leases)
	}

	b.mu.Lock()
	b.failLease = true
	b.mu.Unlock()
	c.send(&LeaseRefresh{ReqID: 4, URLs: []string{"http://x/f.xml"}})
	if nak, ok := c.read().(*Nak); !ok || nak.ReqID != 4 || nak.Reason == "" {
		t.Fatalf("failed lease refresh reply = %#v", nak)
	}
}

// TestServerCloseDrainsQueuedNotifies pins the graceful-shutdown
// contract: frames already queued to a connection's writer when Close is
// called are written and flushed — the client sees every one of them and
// then a clean EOF, not a connection torn mid-frame.
func TestServerCloseDrainsQueuedNotifies(t *testing.T) {
	b := newFakeBackend()
	s := startServer(t, b)
	c := dialServer(t, s.Addr())
	defer c.conn.Close()

	c.send(&Login{ReqID: 1, Handle: "alice"})
	if a, ok := c.read().(*Ack); !ok || a.ReqID != 1 {
		t.Fatalf("login reply = %#v", a)
	}
	c.read() // ServerInfo

	const queued = 32
	for v := uint64(1); v <= queued; v++ {
		if !notify(s, "alice", "u", v, time.Time{}) {
			t.Fatal("alice has no session")
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()

	var got uint64
	for {
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := ReadFrame(c.conn)
		if err != nil {
			break // clean end of stream after the drain
		}
		if n, ok := f.(*Notify); ok {
			if n.Version != got+1 {
				t.Fatalf("notify v%d after v%d: reordered or torn", n.Version, got)
			}
			got = n.Version
		}
	}
	if got != queued {
		t.Fatalf("drained %d of %d queued notifications before close", got, queued)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
}
