package webgateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"corona/internal/clientproto"
)

// fakeBackend implements clientproto.Backend in-memory.
type fakeBackend struct {
	mu        sync.Mutex
	subs      map[string]map[string]bool
	refreshes map[string]int
	calls     []string // "sub <client> <url>" and "unsub <client> <url>", in order
	subErr    error
	// subscribeGate, when non-nil, is received from inside Subscribe —
	// tests use it to hold a subscribe in flight deterministically.
	subscribeGate chan struct{}
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		subs:      make(map[string]map[string]bool),
		refreshes: make(map[string]int),
	}
}

func (b *fakeBackend) Subscribe(client, url string) error {
	b.mu.Lock()
	gate, err := b.subscribeGate, b.subErr
	b.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls = append(b.calls, "sub "+client+" "+url)
	if b.subs[client] == nil {
		b.subs[client] = make(map[string]bool)
	}
	b.subs[client][url] = true
	return nil
}

func (b *fakeBackend) Unsubscribe(client, url string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls = append(b.calls, "unsub "+client+" "+url)
	delete(b.subs[client], url)
	return nil
}

func (b *fakeBackend) RefreshLeases(client string, urls []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refreshes[client] += len(urls)
}

func (b *fakeBackend) LeaseCadence() time.Duration { return 20 * time.Millisecond }

func (b *fakeBackend) Info() clientproto.ServerInfo {
	return clientproto.ServerInfo{Node: "overlay:1", Peers: []string{"overlay:2"}}
}

// testHandles is every handle these tests log in with: notify addresses
// its batch to all of them, as an entry node addresses one batch to a
// channel's local subscribers.
var testHandles = []string{"alice", "ann", "bob", "carol", "dora", "eve", "fin", "h"}

// notify pushes one update through the gateway's session table, the
// node's delivery path: the replay rings record it, then every session
// of testHandles gets it.
func notify(s *Server, channel string, version uint64, diff string) {
	s.table.NotifyBatch(testHandles, channel, version, diff, time.Now())
}

// startServer runs a gateway on a loopback listener.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	return startServerTimed(t, cfg, liveTimings)
}

// startServerTimed is startServer with the session timings tm.
func startServerTimed(t *testing.T, cfg Config, tm timings) (*Server, string) {
	t.Helper()
	s := newServer(cfg, tm, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

// wsExpect reads messages until one of type want arrives, failing on
// anything unexpected in between except notifies (returned via onNotify
// when set).
func wsExpect(t *testing.T, c *WSClient, want string) serverMsg {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		data, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("waiting for %q: %v", want, err)
		}
		var m serverMsg
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("bad JSON %q: %v", data, err)
		}
		if m.Type == want {
			return m
		}
		if m.Type == "nak" {
			t.Fatalf("nak while waiting for %q: %s", want, m.Reason)
		}
	}
}

func wsLogin(t *testing.T, c *WSClient, handle, token string) string {
	t.Helper()
	if err := c.WriteJSON(clientMsg{Type: "login", Req: 1, Handle: handle, Token: token}); err != nil {
		t.Fatal(err)
	}
	ack := wsExpect(t, c, "ack")
	if ack.Token == "" {
		t.Fatal("login ack carried no resume token")
	}
	wsExpect(t, c, "hello")
	return ack.Token
}

func TestWSLoginSubscribeNotify(t *testing.T) {
	b := newFakeBackend()
	s, addr := startServer(t, Config{Backend: b})
	c, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wsLogin(t, c, "alice", "")

	if err := c.WriteJSON(clientMsg{Type: "subscribe", Req: 2, URL: "http://feed/1"}); err != nil {
		t.Fatal(err)
	}
	wsExpect(t, c, "ack")
	notify(s, "http://feed/1", 7, "diff-7")
	n := wsExpect(t, c, "notify")
	if n.Channel != "http://feed/1" || n.Version != 7 || n.Diff != "diff-7" || n.At == 0 {
		t.Fatalf("notify = %+v", n)
	}
	// Duplicate delivery (re-observed batch) is filtered.
	notify(s, "http://feed/1", 7, "diff-7")
	notify(s, "http://feed/1", 8, "diff-8")
	if n = wsExpect(t, c, "notify"); n.Version != 8 {
		t.Fatalf("after duplicate: version %d, want 8", n.Version)
	}
	if got := s.Counters(); got.SessionsWS != 1 || got.Notifies != 2 {
		t.Fatalf("counters = %+v", got)
	}
}

func TestWSResumeReplaysGap(t *testing.T) {
	b := newFakeBackend()
	s, addr := startServer(t, Config{Backend: b})
	c, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	token := wsLogin(t, c, "alice", "")
	c.WriteJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u"})
	wsExpect(t, c, "ack")
	notify(s, "u", 1, "d1")
	if n := wsExpect(t, c, "notify"); n.Version != 1 {
		t.Fatalf("version %d, want 1", n.Version)
	}

	// Hard disconnect; miss versions 2..4.
	c.Kill()
	for v := uint64(2); v <= 4; v++ {
		notify(s, "u", v, fmt.Sprintf("d%d", v))
	}

	c2, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	wsLogin(t, c2, "alice", token)
	since := uint64(1)
	c2.WriteJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u", Since: &since})
	wsExpect(t, c2, "ack")
	notify(s, "u", 5, "d5") // live update racing the replay
	var got []uint64
	for len(got) < 4 {
		n := wsExpect(t, c2, "notify")
		got = append(got, n.Version)
	}
	if fmt.Sprint(got) != "[2 3 4 5]" {
		t.Fatalf("replayed versions %v, want [2 3 4 5]", got)
	}
	if r := s.Counters(); r.ReplayHits == 0 {
		t.Fatalf("replay stats %+v, want a hit", r)
	}
}

func TestWSResumePastWindowSignalsSnapshot(t *testing.T) {
	b := newFakeBackend()
	s, addr := startServer(t, Config{Backend: b})
	// Fill the ring past its capacity: versions 1..6 wrap away.
	newest := uint64(clientproto.DefaultReplayCap + 6)
	for v := uint64(1); v <= newest; v++ {
		s.replay.Append("u", v, "d", time.Now())
	}
	c, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wsLogin(t, c, "alice", "")
	since := uint64(2) // versions 3..6 wrapped away
	c.WriteJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u", Since: &since})
	wsExpect(t, c, "ack")
	sr := wsExpect(t, c, "snapshot_required")
	if sr.Channel != "u" || sr.Version != newest {
		t.Fatalf("snapshot_required = %+v, want channel u version %d", sr, newest)
	}
	// The watermark advanced to newest: stale re-deliveries are dropped,
	// newer ones flow.
	notify(s, "u", newest, "d")
	notify(s, "u", newest+1, "d+1")
	if n := wsExpect(t, c, "notify"); n.Version != newest+1 {
		t.Fatalf("post-snapshot notify version %d, want %d", n.Version, newest+1)
	}
	if m := s.Counters().ReplayMissesBufferWrap; m != 1 {
		t.Fatalf("replay misses = %d, want 1", m)
	}
}

// TestWSExactlyOnceAcrossGate holds a subscribe in flight while live
// updates arrive, then releases it: the session must see every version
// exactly once, in order — the gate sends them through the replay ring
// instead of dropping or duplicating them.
func TestWSExactlyOnceAcrossGate(t *testing.T) {
	b := newFakeBackend()
	s, addr := startServer(t, Config{Backend: b})
	c, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wsLogin(t, c, "alice", "")

	gate := make(chan struct{})
	b.mu.Lock()
	b.subscribeGate = gate
	b.mu.Unlock()
	since := uint64(0)
	c.WriteJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u", Since: &since})
	// The subscribe is now blocked inside the backend. Updates arriving
	// meanwhile reach the replay ring (and, because the session's
	// deliverer is in the table since login, the gate filter).
	time.Sleep(20 * time.Millisecond)
	for v := uint64(1); v <= 3; v++ {
		notify(s, "u", v, "d")
	}
	b.mu.Lock()
	b.subscribeGate = nil
	b.mu.Unlock()
	close(gate)
	wsExpect(t, c, "ack")
	notify(s, "u", 4, "d")
	var got []uint64
	for len(got) < 4 {
		got = append(got, wsExpect(t, c, "notify").Version)
	}
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("versions %v, want [1 2 3 4] exactly once each", got)
	}
}

func TestWSDisplacementAcrossConnections(t *testing.T) {
	b := newFakeBackend()
	s, addr := startServer(t, Config{Backend: b})
	c1, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	token := wsLogin(t, c1, "alice", "")

	// Wrong token: refused.
	c2, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	c2.WriteJSON(clientMsg{Type: "login", Req: 1, Handle: "alice", Token: "00ff"})
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, err := c2.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	var m serverMsg
	json.Unmarshal(data, &m)
	if m.Type != "nak" {
		t.Fatalf("wrong-token login got %q, want nak", m.Type)
	}
	c2.Close()

	// Right token: displaces c1.
	c3, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	wsLogin(t, c3, "alice", token)
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := c1.ReadMessage(); err != nil {
			break // displaced connection torn down
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().DisconnectsDisplaced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("displacement never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The refused connection's handler tears down asynchronously; only
	// the survivor should remain once it does.
	for s.Counters().SessionsWS != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("ws sessions = %d, want 1 (survivor only)", s.Counters().SessionsWS)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSlowClientDropOldest(t *testing.T) {
	b := newFakeBackend()
	tm := liveTimings
	tm.queueLen = 4
	s := newServer(Config{Backend: b}, tm, nil)
	out, _ := s.edge.Open(nil)
	// No writer drains the queue: fill it past capacity.
	for v := uint64(1); v <= 10; v++ {
		out.Deliver(clientproto.Notification{Channel: "u", Version: v, Diff: "d", At: time.Now(), Shared: &clientproto.Shared{}})
	}
	c := s.Counters()
	if c.DroppedSlowClient != 6 || c.DisconnectsSlowClient != 0 {
		t.Fatalf("counters = %+v, want 6 slow drops, no disconnects", c)
	}
	// Control events still get through a full queue.
	out.Control(event(serverMsg{Type: "ack"}))
	queued := drained(out)
	if got := entryVersionsOut(queued); fmt.Sprint(got) != "[7 8 9 10]" {
		t.Fatalf("queue = %v, want the newest 4", got)
	}
	if n := len(queued); n != 5 {
		t.Fatalf("control event did not enqueue past a full queue: %d", n)
	}
}

// drained closes an outbox and returns what its writer loop writes.
func drained(o *clientproto.Outbox[outEvent]) []clientproto.Queued[outEvent] {
	o.Close(clientproto.CloseGone)
	var got []clientproto.Queued[outEvent]
	o.Drain(func(q clientproto.Queued[outEvent]) error {
		got = append(got, q)
		return nil
	}, func() error { return nil })
	return got
}

func entryVersionsOut(evs []clientproto.Queued[outEvent]) []uint64 {
	var vs []uint64
	for _, e := range evs {
		if e.Msg.name == "notify" {
			vs = append(vs, e.Version)
		}
	}
	return vs
}

func sseConnect(t *testing.T, addr, query, lastEventID string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	req := "GET /sse?" + query + " HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n"
	if lastEventID != "" {
		req += "Last-Event-ID: " + lastEventID + "\r\n"
	}
	req += "\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("SSE status: %s", strings.TrimSpace(status))
	}
	for { // skip response headers
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	return conn, br
}

type sseEvent struct {
	id, name, data string
}

// readSSEEvent reads one event (skipping comments), handling
// chunked-encoding framing loosely by ignoring pure-hex lines.
func readSSEEvent(t *testing.T, br *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			ev.name = line[7:]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[6:]
		case line == "" && ev.name != "":
			return ev
		}
	}
}

func TestSSEHelloNotifyAndResume(t *testing.T) {
	b := newFakeBackend()
	s, addr := startServer(t, Config{Backend: b})
	conn, br := sseConnect(t, addr, "handle=bob&ch=u", "")
	defer conn.Close()

	hello := readSSEEvent(t, br)
	if hello.name != "hello" {
		t.Fatalf("first event %q, want hello", hello.name)
	}
	var hm serverMsg
	json.Unmarshal([]byte(hello.data), &hm)
	if hm.Token == "" || hm.Node != "overlay:1" {
		t.Fatalf("hello = %+v", hm)
	}

	notify(s, "u", 1, "d1")
	notify(s, "u", 2, "d2")
	ev := readSSEEvent(t, br)
	if ev.name != "notify" {
		t.Fatalf("event %q, want notify", ev.name)
	}
	var lastID string
	for _, ev := range []sseEvent{ev, readSSEEvent(t, br)} {
		if ev.id == "" {
			t.Fatal("notify event missing id")
		}
		lastID = ev.id
	}
	if want := "u:2"; lastID != want {
		t.Fatalf("cursor id = %q, want %q", lastID, want)
	}

	// Hard-disconnect, miss 3..4, reconnect with Last-Event-ID.
	conn.Close()
	notify(s, "u", 3, "d3")
	notify(s, "u", 4, "d4")
	conn2, br2 := sseConnect(t, addr, "handle=bob&token="+hm.Token+"&ch=u", lastID)
	defer conn2.Close()
	var versions []uint64
	for len(versions) < 2 {
		ev := readSSEEvent(t, br2)
		if ev.name != "notify" {
			continue
		}
		var nm serverMsg
		json.Unmarshal([]byte(ev.data), &nm)
		versions = append(versions, nm.Version)
	}
	if fmt.Sprint(versions) != "[3 4]" {
		t.Fatalf("resumed versions %v, want [3 4]", versions)
	}
	if c := s.Counters(); c.ReplayHits == 0 {
		t.Fatalf("counters %+v, want a replay hit", c)
	}
}

func TestSSEWrongTokenConflicts(t *testing.T) {
	b := newFakeBackend()
	_, addr := startServer(t, Config{Backend: b})
	conn, _ := sseConnect(t, addr, "handle=carol&ch=u", "")
	defer conn.Close()
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "GET /sse?handle=carol&token=00ff HTTP/1.1\r\nHost: x\r\n\r\n")
	br := bufio.NewReader(conn2)
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "409") {
		t.Fatalf("second login status %q, want 409", strings.TrimSpace(status))
	}
}

func TestCursorRoundTrip(t *testing.T) {
	cursor := map[string]uint64{
		"http://feeds.example/a?x=1": 42,
		"plain":                      7,
		"with,comma":                 9,
		"with:colon":                 1,
	}
	got := parseCursor(cursorString(cursor))
	if len(got) != len(cursor) {
		t.Fatalf("round trip lost channels: %v", got)
	}
	for ch, v := range cursor {
		if got[ch] != v {
			t.Fatalf("channel %q: %d, want %d", ch, got[ch], v)
		}
	}
	// Garbage degrades to empty, never errors.
	if m := parseCursor("not a cursor"); len(m) != 0 {
		t.Fatalf("garbage cursor parsed to %v", m)
	}
	if m := parseCursor(""); len(m) != 0 {
		t.Fatalf("empty cursor parsed to %v", m)
	}
}

func TestLeaseRefreshLoop(t *testing.T) {
	b := newFakeBackend()
	_, addr := startServer(t, Config{Backend: b})
	c, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wsLogin(t, c, "dora", "")
	c.WriteJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u"})
	wsExpect(t, c, "ack")
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		n := b.refreshes["dora"]
		b.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease refresh observed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := newFakeBackend()
	s, addr := startServer(t, Config{Backend: b})
	c, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wsLogin(t, c, "eve", "")
	c.WriteJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u"})
	wsExpect(t, c, "ack")
	c.WriteJSON(clientMsg{Type: "unsubscribe", Req: 3, URL: "u"})
	wsExpect(t, c, "ack")
	b.mu.Lock()
	subscribed := b.subs["eve"]["u"]
	b.mu.Unlock()
	if subscribed {
		t.Fatal("backend still subscribed after unsubscribe")
	}
	_ = s
}

// TestWSHeartbeatPing checks the server pings and the read deadline
// extends — a quiet but ping-answering client stays connected.
func TestWSHeartbeatPing(t *testing.T) {
	b := newFakeBackend()
	tm := liveTimings
	tm.heartbeat = 30 * time.Millisecond
	s, addr := startServerTimed(t, Config{Backend: b}, tm)
	c, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wsLogin(t, c, "ann", "")
	c.WriteJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u"})
	wsExpect(t, c, "ack")
	// Sit through several heartbeat intervals; ReadMessage answers the
	// pings under the covers. A notify afterwards proves the session
	// survived.
	done := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		notify(s, "u", 1, "d")
		close(done)
	}()
	if n := wsExpect(t, c, "notify"); n.Version != 1 {
		t.Fatalf("notify version %d", n.Version)
	}
	<-done
}

// TestServerCloseTearsDownSessions: Close must reach hijacked WS
// connections the http.Server no longer tracks.
func TestServerCloseTearsDownSessions(t *testing.T) {
	b := newFakeBackend()
	s, addr := startServer(t, Config{Backend: b})
	c, err := DialWS("ws://" + addr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wsLogin(t, c, "fin", "")
	s.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := c.ReadMessage(); err != nil {
			if _, ok := err.(net.Error); ok && err.(net.Error).Timeout() {
				t.Fatal("connection still alive after Close")
			}
			if err == io.EOF || !strings.Contains(err.Error(), "timeout") {
				return // torn down
			}
		}
	}
}
