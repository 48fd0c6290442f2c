package webgateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"corona/internal/clientproto"
)

// wireMsg is what a transcript pins of one server-to-client WS message.
type wireMsg struct {
	Type    string
	Req     uint64
	Reason  string
	Token   bool // a resume token is present
	Version uint64
}

// wsTranscript sends one raw WS text message, then a sentinel ping, and
// returns every server message that arrives before the sentinel's ack:
// the request's whole answer, in order.
func wsTranscript(t *testing.T, c *WSClient, raw []byte) []wireMsg {
	t.Helper()
	const sentinel = 999
	if err := c.write(opText, raw); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(clientMsg{Type: "ping", Req: sentinel}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got []wireMsg
	for {
		data, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("after %v: %v", got, err)
		}
		var m serverMsg
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("bad JSON %q: %v", data, err)
		}
		if m.Type == "ack" && m.Req == sentinel {
			return got
		}
		got = append(got, wireMsg{Type: m.Type, Req: m.Req, Reason: m.Reason, Token: m.Token != "", Version: m.Version})
	}
}

// TestWSTranscript pins, per request, the exact sequence of messages a
// WS session answers with.
func TestWSTranscript(t *testing.T) {
	mustJSON := func(m clientMsg) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const malformed = "{not json"
	jsonErr := json.Unmarshal([]byte(malformed), new(clientMsg))
	since := uint64(1)
	rows := []struct {
		name  string
		login bool // log in as alice first
		setup func(*Server, *fakeBackend)
		send  []byte
		want  []wireMsg
	}{
		{name: "login ok",
			send: mustJSON(clientMsg{Type: "login", Req: 1, Handle: "alice"}),
			want: []wireMsg{{Type: "ack", Req: 1, Token: true}, {Type: "hello"}}},
		{name: "login twice", login: true,
			send: mustJSON(clientMsg{Type: "login", Req: 2, Handle: "bob"}),
			want: []wireMsg{{Type: "nak", Req: 2, Reason: "already logged in as alice"}}},
		{name: "login empty handle",
			send: mustJSON(clientMsg{Type: "login", Req: 1}),
			want: []wireMsg{{Type: "nak", Req: 1, Reason: "empty handle"}}},
		{name: "login non-hex token",
			send: mustJSON(clientMsg{Type: "login", Req: 1, Handle: "alice", Token: "xyz"}),
			want: []wireMsg{{Type: "nak", Req: 1, Reason: "malformed token: not hex"}}},
		{name: "login token mismatch",
			setup: func(s *Server, _ *fakeBackend) {
				s.table.Begin("alice", []byte{1}, TransportWS, nil, func(clientproto.Notification) {})
			},
			send: mustJSON(clientMsg{Type: "login", Req: 1, Handle: "alice", Token: "00ff"}),
			want: []wireMsg{{Type: "nak", Req: 1, Reason: "handle in use (resume token mismatch)"}}},
		{name: "subscribe before login",
			send: mustJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u"}),
			want: []wireMsg{{Type: "nak", Req: 2, Reason: "not logged in"}}},
		{name: "subscribe empty url", login: true,
			send: mustJSON(clientMsg{Type: "subscribe", Req: 2}),
			want: []wireMsg{{Type: "nak", Req: 2, Reason: "empty url"}}},
		{name: "subscribe backend error", login: true,
			setup: func(_ *Server, b *fakeBackend) { b.subErr = errors.New("overlay down") },
			send:  mustJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u"}),
			want:  []wireMsg{{Type: "nak", Req: 2, Reason: "overlay down"}}},
		{name: "subscribe ok", login: true,
			send: mustJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u"}),
			want: []wireMsg{{Type: "ack", Req: 2}}},
		{name: "subscribe ok since", login: true,
			setup: func(s *Server, _ *fakeBackend) {
				for v := uint64(1); v <= 3; v++ {
					s.replay.Append("u", v, "d", time.Now())
				}
			},
			send: mustJSON(clientMsg{Type: "subscribe", Req: 2, URL: "u", Since: &since}),
			want: []wireMsg{{Type: "ack", Req: 2}, {Type: "notify", Version: 2}, {Type: "notify", Version: 3}}},
		{name: "unsubscribe", login: true,
			send: mustJSON(clientMsg{Type: "unsubscribe", Req: 3, URL: "u"}),
			want: []wireMsg{{Type: "ack", Req: 3}}},
		{name: "ping",
			send: mustJSON(clientMsg{Type: "ping", Req: 4}),
			want: []wireMsg{{Type: "ack", Req: 4}}},
		{name: "unknown type",
			send: mustJSON(clientMsg{Type: "bogus", Req: 5}),
			want: []wireMsg{{Type: "nak", Req: 5, Reason: "unknown message type bogus"}}},
		{name: "malformed JSON",
			send: []byte(malformed),
			want: []wireMsg{{Type: "nak", Reason: "malformed message: " + jsonErr.Error()}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			b := newFakeBackend()
			s, addr := startServer(t, Config{Backend: b})
			if row.setup != nil {
				row.setup(s, b)
			}
			c, err := DialWS("ws://" + addr + "/ws")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if row.login {
				wsLogin(t, c, "alice", "")
			}
			if got := wsTranscript(t, c, row.send); fmt.Sprint(got) != fmt.Sprint(row.want) {
				t.Fatalf("answer %+v, want %+v", got, row.want)
			}
		})
	}
}

// TestEmptyURLNaks: a request naming no channel is answered "empty url"
// on every path that names one — a WS unsubscribe, and an SSE stream
// with an empty ch — and never reaches the backend, where the root of
// the empty key would take ownership of channel "" and poll it.
func TestEmptyURLNaks(t *testing.T) {
	noEmptyCalls := func(t *testing.T, b *fakeBackend) {
		t.Helper()
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, call := range b.calls {
			if strings.HasSuffix(call, " ") {
				t.Fatalf("backend saw %q; calls %q", call, b.calls)
			}
		}
	}
	t.Run("ws unsubscribe", func(t *testing.T) {
		b := newFakeBackend()
		_, addr := startServer(t, Config{Backend: b})
		c, err := DialWS("ws://" + addr + "/ws")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wsLogin(t, c, "alice", "")
		raw, _ := json.Marshal(clientMsg{Type: "unsubscribe", Req: 3})
		want := []wireMsg{{Type: "nak", Req: 3, Reason: "empty url"}}
		if got := wsTranscript(t, c, raw); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("answer %+v, want %+v", got, want)
		}
		noEmptyCalls(t, b)
	})
	t.Run("sse empty ch", func(t *testing.T) {
		b := newFakeBackend()
		tm := liveTimings
		tm.heartbeat = 20 * time.Millisecond
		_, addr := startServerTimed(t, Config{Backend: b}, tm)
		conn, br := sseConnect(t, addr, "handle=bob&ch=&ch=u", "")
		defer conn.Close()
		if ev := readSSEEvent(t, br); ev.name != "hello" {
			t.Fatalf("first event %q, want hello", ev.name)
		}
		// The subscribe results are queued before the keep-alive starts,
		// so a nak comes before the first heartbeat.
		var ev sseEvent
		for ev.name == "" || ev.data == "" {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			switch line = strings.TrimRight(line, "\r\n"); {
			case line == ": hb":
				t.Fatal("heartbeat before any nak: the empty channel was subscribed")
			case strings.HasPrefix(line, "event: "):
				ev.name = line[7:]
			case strings.HasPrefix(line, "data: "):
				ev.data = line[6:]
			}
		}
		var m serverMsg
		json.Unmarshal([]byte(ev.data), &m)
		if ev.name != "nak" || m.Reason != "empty url" || m.Channel != "" {
			t.Fatalf("event %q %+v, want a nak for the empty channel", ev.name, m)
		}
		noEmptyCalls(t, b)
	})
}
