package clientproto

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

func startLine(t *testing.T, b Backend, table *SessionTable) *Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := ServeLine(l, b, table, nil)
	t.Cleanup(func() { s.Close() })
	return s
}

// lineClient is a raw line-protocol client.
type lineClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialLine(t *testing.T, addr string) *lineClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &lineClient{t: t, conn: conn, br: bufio.NewReaderSize(conn, 1<<16)}
}

// do sends one command and returns the reply line.
func (c *lineClient) do(cmd string) string {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		c.t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatalf("reply to %q: %v", cmd, err)
	}
	return strings.TrimSuffix(line, "\n")
}

// version reads one MSG line and returns the version it carries.
func (c *lineClient) version() (uint64, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return 0, err
	}
	quoted, ok := strings.CutPrefix(line, "MSG corona ")
	if !ok {
		return 0, fmt.Errorf("unexpected line %.80q", line)
	}
	body, err := strconv.Unquote(strings.TrimSuffix(quoted, "\n"))
	if err != nil {
		return 0, err
	}
	var url string
	var v uint64
	_, err = fmt.Sscanf(body, "UPDATE %s v%d\n", &url, &v)
	return v, err
}

// TestLineStalledSessionDoesNotBlockNotifyBatch: a line client that
// stops reading must neither block NotifyBatch's caller (on a live node,
// the overlay's per-peer read loop) nor hold back another session's
// delivery.
func TestLineStalledSessionDoesNotBlockNotifyBatch(t *testing.T) {
	g := NewSessionTable(nil)
	s := startLine(t, newFakeBackend(), g)
	stalled, healthy := dialLine(t, s.Addr()), dialLine(t, s.Addr())
	for name, c := range map[string]*lineClient{"stalled": stalled, "healthy": healthy} {
		if r := c.do("LOGIN " + name); r != "OK logged in as "+name {
			t.Fatalf("login %s: %q", name, r)
		}
	}

	// Updates arrive spaced out, as from a live origin; together they are
	// far more than the socket buffers hold, so the stalled session's
	// writer blocks mid-stream.
	const versions, updateGap = 32, 25 * time.Millisecond
	diff := strings.Repeat("x", 512<<10)
	healthy.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for v := uint64(1); v <= versions; v++ {
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			g.NotifyBatch([]string{"stalled", "healthy"}, "http://x/f.xml", v, diff, time.Time{})
		}()
		select {
		case <-returned:
		case <-time.After(time.Second):
			t.Fatalf("NotifyBatch of v%d blocked behind a stalled line session", v)
		}
		if got, err := healthy.version(); err != nil || got != v {
			t.Fatalf("healthy session read v%d (%v), want v%d", got, err, v)
		}
		time.Sleep(updateGap)
	}
}

// TestLineFanoutIsNotPaced: one update for 100 line sessions reaches
// every one of them at once, as the line protocol's MSG line; no
// node-wide pacer spaces the sends.
func TestLineFanoutIsNotPaced(t *testing.T) {
	g := NewSessionTable(nil)
	s := startLine(t, newFakeBackend(), g)
	clients := make([]*lineClient, 100)
	handles := make([]string, len(clients))
	for i := range clients {
		handles[i] = fmt.Sprintf("u%d", i)
		clients[i] = dialLine(t, s.Addr())
		if r := clients[i].do("LOGIN " + handles[i]); !strings.HasPrefix(r, "OK") {
			t.Fatalf("login %s: %q", handles[i], r)
		}
	}
	deadline := time.Now().Add(time.Second)
	g.NotifyBatch(handles, "http://x/f.xml", 7, "a\nb", time.Time{})
	const want = `MSG corona "UPDATE http://x/f.xml v7\na\nb"` + "\n"
	for i, c := range clients {
		c.conn.SetReadDeadline(deadline)
		if line, err := c.br.ReadString('\n'); line != want {
			t.Fatalf("session %s read %q (%v), want %q within 1s of NotifyBatch", handles[i], line, err, want)
		}
	}
}

// TestLineSingleLoginAcrossTransports: the node-wide session table
// refuses a line LOGIN for a handle live over the binary protocol, and a
// handle is free again once its line session has quit.
func TestLineSingleLoginAcrossTransports(t *testing.T) {
	b := newFakeBackend()
	table := NewSessionTable(nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bin := ServeSessions(l, b, table, nil)
	t.Cleanup(func() { bin.Close() })
	line := startLine(t, b, table)

	bc := dialServer(t, bin.Addr())
	defer bc.conn.Close()
	bc.send(&Login{ReqID: 1, Handle: "alice"})
	if a, ok := bc.read().(*Ack); !ok {
		t.Fatalf("binary login reply = %#v", a)
	}
	c := dialLine(t, line.Addr())
	if r := c.do("LOGIN alice"); !strings.HasPrefix(r, "ERR handle in use") {
		t.Fatalf("line login for a handle live over binary: %q, want ERR handle in use", r)
	}

	if r := c.do("LOGIN bob"); r != "OK logged in as bob" {
		t.Fatalf("line login: %q", r)
	}
	if r := c.do("QUIT"); r != "OK bye" {
		t.Fatalf("quit: %q", r)
	}
	if _, err := c.br.ReadString('\n'); err != io.EOF {
		t.Fatalf("after QUIT: %v, want EOF", err)
	}
	if r := dialLine(t, line.Addr()).do("LOGIN bob"); r != "OK logged in as bob" {
		t.Fatalf("login after QUIT: %q", r)
	}
}
