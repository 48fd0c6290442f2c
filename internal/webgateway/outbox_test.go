package webgateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/clientproto"
)

// pipeListener hands out the server ends of in-memory pipes. A pipe
// write blocks until the peer reads it, so a test decides exactly when a
// session's writer can make progress.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial connects a new pipe; the server end counts its writes in
// progress.
func (l *pipeListener) dial() (client net.Conn, server *watchedConn) {
	c, s := net.Pipe()
	w := &watchedConn{Conn: s}
	l.conns <- w
	return c, w
}

type watchedConn struct {
	net.Conn
	writing atomic.Int32
}

func (c *watchedConn) Write(p []byte) (int, error) {
	c.writing.Add(1)
	defer c.writing.Add(-1)
	return c.Conn.Write(p)
}

// edgeItem is one decoded server-to-client item.
type edgeItem struct {
	notify  bool
	channel string
	version uint64
	req     uint64 // control items answering a request: its id
}

// edgeHarness drives one framing's edge over a pipe: deliveries go
// through the session table to the session's real Outbox.Deliver, items
// are decoded from the client end of the socket. Every harness session
// logs in as "h".
type edgeHarness struct {
	table   *clientproto.SessionTable
	server  *watchedConn
	next    func() (edgeItem, error)
	control func(req uint64) // make the server queue a control item
	close   func() error
	dropped func() uint64 // notifies dropped, slow plus oversize
}

func (h *edgeHarness) deliver(channel string, version uint64, diff string) {
	h.table.NotifyBatch([]string{"h"}, channel, version, diff, time.Now())
}

// stall leaves the session's writer blocked mid-write: a priming
// notify on channel p goes out (or waits behind a write already blocked)
// and nothing reads, so everything delivered next waits in the queue.
func (h *edgeHarness) stall(t *testing.T) {
	t.Helper()
	h.deliver("p", 1, "prime")
	deadline := time.Now().Add(5 * time.Second)
	for held := time.Now(); time.Since(held) < 50*time.Millisecond; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("writer never blocked")
		}
		if h.server.writing.Load() == 0 {
			held = time.Now()
		}
	}
}

// notifies counts the notify items among items.
func notifies(items []edgeItem) uint64 {
	n := uint64(0)
	for _, it := range items {
		if it.notify {
			n++
		}
	}
	return n
}

// readUntil reads items until done says stop, failing on a stream error.
func (h *edgeHarness) readUntil(t *testing.T, done func(edgeItem) bool) []edgeItem {
	t.Helper()
	var got []edgeItem
	for {
		it, err := h.next()
		if err != nil {
			t.Fatalf("reading after %d items: %v", len(got), err)
		}
		got = append(got, it)
		if done(it) {
			return got
		}
	}
}

// versions lists the notified versions of one channel, in stream order.
func versions(items []edgeItem, channel string) []uint64 {
	var vs []uint64
	for _, it := range items {
		if it.notify && it.channel == channel {
			vs = append(vs, it.version)
		}
	}
	return vs
}

func seq(from, to uint64) []uint64 {
	var vs []uint64
	for v := from; v <= to; v++ {
		vs = append(vs, v)
	}
	return vs
}

func binaryHarness(t *testing.T) *edgeHarness {
	table := clientproto.NewSessionTable(nil)
	l := newPipeListener()
	srv := clientproto.ServeSessions(l, newFakeBackend(), table, nil)
	t.Cleanup(func() { srv.Close() })
	conn, server := l.dial()
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := clientproto.Hello(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if err := clientproto.WriteFrame(conn, &clientproto.Login{ReqID: 1, Handle: "h"}); err != nil {
		t.Fatal(err)
	}
	for range 2 { // Ack, ServerInfo
		if _, err := clientproto.ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}
	return &edgeHarness{
		table:  table,
		server: server,
		next: func() (edgeItem, error) {
			f, err := clientproto.ReadFrame(br)
			switch f := f.(type) {
			case *clientproto.Notify:
				return edgeItem{notify: true, channel: f.Channel, version: f.Version}, nil
			case *clientproto.Ack:
				return edgeItem{req: f.ReqID}, nil
			}
			return edgeItem{}, err
		},
		control: func(req uint64) { clientproto.WriteFrame(conn, &clientproto.Ping{ReqID: req}) },
		close:   srv.Close,
		dropped: srv.NotifyDropped,
	}
}

func lineHarness(t *testing.T) *edgeHarness {
	table := clientproto.NewSessionTable(nil)
	l := newPipeListener()
	srv := clientproto.ServeLine(l, newFakeBackend(), table, nil)
	t.Cleanup(func() { srv.Close() })
	conn, server := l.dial()
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "LOGIN h\n")
	if line, err := br.ReadString('\n'); line != "OK logged in as h\n" {
		t.Fatalf("login reply %q, %v", line, err)
	}
	return &edgeHarness{
		table:  table,
		server: server,
		next: func() (edgeItem, error) {
			line, err := br.ReadString('\n')
			if err != nil {
				return edgeItem{}, err
			}
			if ctl, ok := strings.CutPrefix(line, "OK subscribed ctl"); ok {
				req, err := strconv.ParseUint(strings.TrimSpace(ctl), 10, 64)
				return edgeItem{req: req}, err
			}
			quoted, ok := strings.CutPrefix(line, "MSG corona ")
			if !ok {
				return edgeItem{}, fmt.Errorf("unexpected line %q", line)
			}
			body, err := strconv.Unquote(strings.TrimSuffix(quoted, "\n"))
			if err != nil {
				return edgeItem{}, err
			}
			var it edgeItem
			_, err = fmt.Sscanf(body, "UPDATE %s v%d\n", &it.channel, &it.version)
			it.notify = true
			return it, err
		},
		control: func(req uint64) { fmt.Fprintf(conn, "SUBSCRIBE ctl%d\n", req) },
		close:   srv.Close,
		dropped: srv.NotifyDropped,
	}
}

func webHarness(t *testing.T, tm timings) (*edgeHarness, *Server, *bufio.Reader, net.Conn) {
	s := newServer(Config{Backend: newFakeBackend()}, tm, nil)
	l := newPipeListener()
	s.Serve(l)
	t.Cleanup(func() { s.Close() })
	conn, server := l.dial()
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &edgeHarness{
		table:   s.table,
		server:  server,
		close:   s.Close,
		dropped: func() uint64 { c := s.Counters(); return c.DroppedSlowClient + c.DroppedOversize },
	}, s, bufio.NewReader(conn), conn
}

func wsHarness(t *testing.T) *edgeHarness {
	h, _, br, conn := webHarness(t, liveTimings)
	c := dialWSPipe(t, conn, br)
	wsLogin(t, c, "h", "")
	h.next = func() (edgeItem, error) {
		data, err := c.ReadMessage()
		if err != nil {
			return edgeItem{}, err
		}
		var m serverMsg
		if err := json.Unmarshal(data, &m); err != nil {
			return edgeItem{}, err
		}
		return edgeItem{notify: m.Type == "notify", channel: m.Channel, version: m.Version, req: m.Req}, nil
	}
	h.control = func(req uint64) { c.WriteJSON(clientMsg{Type: "ping", Req: req}) }
	return h
}

// dialWSPipe performs the client half of the WS handshake over conn.
func dialWSPipe(t *testing.T, conn net.Conn, br *bufio.Reader) *WSClient {
	t.Helper()
	fmt.Fprintf(conn, "GET /ws HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\n\r\n")
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("ws handshake: %v %v", resp, err)
	}
	return &WSClient{conn: conn, br: br}
}

// sseHeartbeat is the SSE harness's heartbeat period: SSE has no
// client-to-server path, so its control items are heartbeats.
const sseHeartbeat = 20 * time.Millisecond

func sseHarness(t *testing.T) *edgeHarness {
	tm := liveTimings
	tm.heartbeat = sseHeartbeat
	h, _, br, conn := webHarness(t, tm)
	fmt.Fprintf(conn, "GET /sse?handle=h HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sse request: %v %v", resp, err)
	}
	body := bufio.NewReader(httputil.NewChunkedReader(br))
	h.next = func() (edgeItem, error) {
		var it edgeItem
		for {
			line, err := body.ReadString('\n')
			if err != nil {
				return edgeItem{}, err
			}
			switch line = strings.TrimSuffix(line, "\n"); {
			case line == ": hb":
				return edgeItem{}, nil
			case strings.HasPrefix(line, "data: "):
				var m serverMsg
				if err := json.Unmarshal([]byte(line[6:]), &m); err != nil {
					return edgeItem{}, err
				}
				it = edgeItem{notify: m.Type == "notify", channel: m.Channel, version: m.Version}
			case line == "" && (it != edgeItem{}):
				return it, nil
			}
		}
	}
	h.control = func(uint64) { time.Sleep(3 * sseHeartbeat) }
	return h
}

// TestOutboxPerFraming runs the shared outbox's shed, filter and drain
// rules through each edge's real framing: binary frames, line-protocol
// text, WS JSON and SSE events, each over a pipe whose writer the test
// can stall.
func TestOutboxPerFraming(t *testing.T) {
	const bound = clientproto.DefaultQueueLen
	framings := []struct {
		name  string
		start func(*testing.T) *edgeHarness
		// isControl reports whether an item is the control item that
		// control(99) queued.
		isControl func(edgeItem) bool
	}{
		{"binary", binaryHarness, func(it edgeItem) bool { return !it.notify && it.req == 99 }},
		{"line", lineHarness, func(it edgeItem) bool { return !it.notify && it.req == 99 }},
		{"ws", wsHarness, func(it edgeItem) bool { return !it.notify && it.req == 99 }},
		{"sse", sseHarness, func(it edgeItem) bool { return !it.notify && it.channel == "" }},
	}
	cases := []struct {
		name string
		run  func(*testing.T, *edgeHarness, func(edgeItem) bool)
	}{
		{"drop-oldest keeps the newest notifies", func(t *testing.T, h *edgeHarness, _ func(edgeItem) bool) {
			h.stall(t)
			last := uint64(bound + 44)
			for v := uint64(1); v <= last; v++ {
				h.deliver("u", v, "d")
			}
			got := h.readUntil(t, func(it edgeItem) bool { return it.notify && it.channel == "u" && it.version == last })
			if vs := versions(got, "u"); fmt.Sprint(vs) != fmt.Sprint(seq(45, last)) {
				t.Fatalf("delivered %v, want the newest %d", vs, bound)
			}
			if d, want := h.dropped(), 1+last-notifies(got); d != want {
				t.Fatalf("dropped = %d, want %d (delivered less received)", d, want)
			}
		}},
		{"control items are never shed", func(t *testing.T, h *edgeHarness, isControl func(edgeItem) bool) {
			h.stall(t)
			for v := uint64(1); v <= 300; v++ {
				h.deliver("u", v, "d")
			}
			h.control(99)
			time.Sleep(20 * time.Millisecond)
			for v := uint64(301); v <= 600; v++ {
				h.deliver("u", v, "d")
			}
			sawControl, sawLast := false, false
			got := h.readUntil(t, func(it edgeItem) bool {
				sawControl = sawControl || isControl(it)
				sawLast = sawLast || it.notify && it.channel == "u" && it.version == 600
				return sawControl && sawLast
			})
			if vs := versions(got, "u"); fmt.Sprint(vs) != fmt.Sprint(seq(600-bound+1, 600)) {
				t.Fatalf("delivered %v, want the newest %d", vs, bound)
			}
			if d, want := h.dropped(), 1+600-notifies(got); d != want {
				t.Fatalf("dropped = %d, want %d (delivered less received)", d, want)
			}
		}},
		{"oversize notifies are dropped and counted", func(t *testing.T, h *edgeHarness, _ func(edgeItem) bool) {
			h.deliver("u", 1, "d")
			h.deliver("u", 2, strings.Repeat("x", 1<<20))
			h.deliver("u", 3, "d")
			got := h.readUntil(t, func(it edgeItem) bool { return it.notify && it.version == 3 })
			if vs := versions(got, "u"); fmt.Sprint(vs) != "[1 3]" {
				t.Fatalf("delivered %v, want [1 3]", vs)
			}
			if d := h.dropped(); d != 1 {
				t.Fatalf("dropped = %d, want 1", d)
			}
		}},
		{"duplicates and older versions are filtered", func(t *testing.T, h *edgeHarness, _ func(edgeItem) bool) {
			for _, v := range []uint64{5, 5, 3, 6} {
				h.deliver("u", v, "d")
			}
			h.deliver("v", 3, "d") // the watermark is per channel
			got := h.readUntil(t, func(it edgeItem) bool { return it.notify && it.channel == "v" })
			if vs := versions(got, "u"); fmt.Sprint(vs) != "[5 6]" {
				t.Fatalf("delivered %v, want [5 6]", vs)
			}
		}},
		{"close drains the queue before closing the socket", func(t *testing.T, h *edgeHarness, _ func(edgeItem) bool) {
			h.stall(t)
			for v := uint64(1); v <= 10; v++ {
				h.deliver("u", v, "d")
			}
			closed := make(chan error, 1)
			go func() { closed <- h.close() }()
			var got []edgeItem
			for {
				it, err := h.next()
				if err != nil {
					break // end of stream
				}
				got = append(got, it)
			}
			if vs := versions(got, "u"); fmt.Sprint(vs) != fmt.Sprint(seq(1, 10)) {
				t.Fatalf("drained %v before the close, want 1..10", vs)
			}
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close never returned")
			}
		}},
	}
	for _, f := range framings {
		for _, c := range cases {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				c.run(t, f.start(t), f.isControl)
			})
		}
	}
}

// TestWSControlFloodClosesSlowSession: a client that sends pings and
// never reads cannot grow its session's queue past the bound — the
// session is closed and counted as slow instead.
func TestWSControlFloodClosesSlowSession(t *testing.T) {
	const bound = 4
	tm := liveTimings
	tm.queueLen = bound
	_, s, br, conn := webHarness(t, tm)
	c := dialWSPipe(t, conn, br)
	// The writer blocks on its first batch of pongs (nothing reads the
	// pipe), so every later pong stays queued; a pipe write returns only
	// once the server has read it, so sent counts the pings the server
	// took: at most a batch in flight, a full queue, and the one that
	// found the queue full.
	sent := 0
	for ; sent < 1000; sent++ {
		if err := c.write(opPing, []byte("flood")); err != nil {
			break
		}
	}
	if sent > 2*bound+1 {
		t.Fatalf("server read %d pings before closing; the queue outgrew its bound of %d", sent, bound)
	}
	if d := s.Counters().DisconnectsSlowClient; d != 1 {
		t.Fatalf("slow-client disconnects = %d, want 1", d)
	}
	if _, err := io.ReadAll(conn); err != nil && err != io.EOF {
		t.Fatalf("connection not closed: %v", err)
	}
}
