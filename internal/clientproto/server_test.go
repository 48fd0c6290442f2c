package clientproto

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// fakeBackend records subscription calls, and each lease refresh as
// its time and channel set, keyed by client.
type fakeBackend struct {
	mu      sync.Mutex
	subs    []string
	unsubs  []string
	leases  map[string][]leaseCall
	failSub bool
}

type leaseCall struct {
	at   time.Time
	urls []string
}

// fakeLeaseCadence is the fake node's session lease cadence.
const fakeLeaseCadence = 10 * time.Millisecond

func newFakeBackend() *fakeBackend {
	return &fakeBackend{leases: make(map[string][]leaseCall)}
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
	urls = append([]string(nil), urls...)
	sort.Strings(urls)
	b.leases[client] = append(b.leases[client], leaseCall{at: time.Now(), urls: urls})
	return nil
}

func (b *fakeBackend) LeaseCadence() time.Duration { return fakeLeaseCadence }

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

// flakyListener fails its first Accept as a listener out of file
// descriptors does, then accepts normally.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestServerAcceptRetriesTransientError checks that one failed Accept
// does not stop a server from taking clients.
func TestServerAcceptRetriesTransientError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := ServeSessions(&flakyListener{Listener: l}, newFakeBackend(), NewSessionTable(nil), nil)
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := Hello(conn); err != nil {
		t.Fatalf("hello after a failed Accept: %v", err)
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

// TestSessionRefreshesLeases pins the one lease driver: a logged-in
// session, binary or line, refreshes its channel set's entry-node leases
// every LeaseCadence of its backend while its client sends nothing at
// all.
func TestSessionRefreshesLeases(t *testing.T) {
	b := newFakeBackend()
	table := NewSessionTable(nil)
	bin := startServer(t, b)
	line := startLine(t, b, table)

	c := dialServer(t, bin.Addr())
	defer c.conn.Close()
	c.send(&Login{ReqID: 1, Handle: "alice"})
	c.read() // Ack
	c.read() // ServerInfo
	for i, u := range []string{"http://x/g.xml", "http://x/f.xml"} {
		c.send(&Subscribe{ReqID: uint64(2 + i), URL: u})
		if a, ok := c.read().(*Ack); !ok || a.ReqID != uint64(2+i) {
			t.Fatalf("subscribe reply = %#v", a)
		}
	}
	binaryFrom := time.Now()

	lc := dialLine(t, line.Addr())
	if r := lc.do("LOGIN bob"); !strings.HasPrefix(r, "OK") {
		t.Fatalf("LOGIN reply %q", r)
	}
	if r := lc.do("SUBSCRIBE http://x/h.xml"); !strings.HasPrefix(r, "OK") {
		t.Fatalf("SUBSCRIBE reply %q", r)
	}
	lineFrom := time.Now()

	waitLeaseCalls(t, b, "alice", binaryFrom, []string{"http://x/f.xml", "http://x/g.xml"})
	waitLeaseCalls(t, b, "bob", lineFrom, []string{"http://x/h.xml"})
}

// waitLeaseCalls waits for five lease refreshes of client's channel
// set after since, then checks they came no faster than the cadence.
func waitLeaseCalls(t *testing.T, b *fakeBackend, client string, since time.Time, want []string) {
	t.Helper()
	const n = 5
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		var calls []leaseCall
		for _, c := range b.leases[client] {
			if !c.at.Before(since) {
				calls = append(calls, c)
			}
		}
		b.mu.Unlock()
		if len(calls) >= n {
			for _, c := range calls {
				if strings.Join(c.urls, " ") != strings.Join(want, " ") {
					t.Fatalf("%s: lease refresh for %v, want its channel set %v", client, c.urls, want)
				}
			}
			if span := calls[len(calls)-1].at.Sub(since); len(calls) > int(span/fakeLeaseCadence)+2 {
				t.Fatalf("%s: %d lease refreshes in %v, faster than one per %v", client, len(calls), span, fakeLeaseCadence)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d lease refreshes after its subscribes, want %d with no client frame", client, len(calls), n)
		}
		time.Sleep(fakeLeaseCadence)
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
