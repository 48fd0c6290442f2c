package corona_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"corona"
	"corona/internal/webgateway"
)

// webMsg mirrors the gateway's JSON message surface (doc.go of
// internal/webgateway) for both directions.
type webMsg struct {
	Type    string   `json:"type"`
	Req     uint64   `json:"req,omitempty"`
	Handle  string   `json:"handle,omitempty"`
	Token   string   `json:"token,omitempty"`
	URL     string   `json:"url,omitempty"`
	Since   *uint64  `json:"since,omitempty"`
	Reason  string   `json:"reason,omitempty"`
	Node    string   `json:"node,omitempty"`
	Peers   []string `json:"peers,omitempty"`
	Channel string   `json:"channel,omitempty"`
	Version uint64   `json:"version,omitempty"`
	Diff    string   `json:"diff,omitempty"`
	At      int64    `json:"at,omitempty"`
}

func readWebMsg(t *testing.T, c *webgateway.WSClient) webMsg {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	data, err := c.ReadMessage()
	if err != nil {
		t.Fatalf("reading ws message: %v", err)
	}
	var m webMsg
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("bad ws JSON %q: %v", data, err)
	}
	return m
}

func expectWebMsg(t *testing.T, c *webgateway.WSClient, want string) webMsg {
	t.Helper()
	for {
		m := readWebMsg(t, c)
		if m.Type == want {
			return m
		}
		if m.Type == "nak" {
			t.Fatalf("nak while waiting for %q: %s", want, m.Reason)
		}
	}
}

// collectNotifies reads WS notify messages until n collected.
func collectNotifies(t *testing.T, c *webgateway.WSClient, n int) []uint64 {
	t.Helper()
	var versions []uint64
	for len(versions) < n {
		m := readWebMsg(t, c)
		if m.Type == "notify" {
			versions = append(versions, m.Version)
		}
	}
	return versions
}

// collectNotifiesUntil reads WS notify messages until one reaches
// target.
func collectNotifiesUntil(t *testing.T, c *webgateway.WSClient, target uint64) []uint64 {
	t.Helper()
	var versions []uint64
	for len(versions) == 0 || versions[len(versions)-1] < target {
		m := readWebMsg(t, c)
		if m.Type == "notify" {
			versions = append(versions, m.Version)
		}
	}
	return versions
}

// sseStream opens an SSE stream and returns the response body reader.
func sseStream(t *testing.T, webAddr, query, lastEventID string) (*http.Response, *bufio.Reader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://"+webAddr+"/sse?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("SSE status %d: %s", resp.StatusCode, body)
	}
	return resp, bufio.NewReader(resp.Body)
}

type liveSSEEvent struct {
	id, name, data string
}

func readLiveSSEEvent(t *testing.T, br *bufio.Reader) liveSSEEvent {
	t.Helper()
	var ev liveSSEEvent
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

// assertResumed fails unless versions are strictly increasing and all
// newer than the resume cursor — the zero-duplicates, monotonic-versions
// acceptance property for a resumed stream. (Versions may legitimately
// skip: a poll that observes two origin updates notifies once with the
// newest version, so contiguity is not guaranteed.)
func assertResumed(t *testing.T, label string, since uint64, versions []uint64) {
	t.Helper()
	prev := since
	for i, v := range versions {
		if v <= prev {
			t.Fatalf("%s: resumed stream %v has duplicate or regressing version at index %d (%d after %d, cursor %d)",
				label, versions, i, v, prev, since)
		}
		prev = v
	}
	if len(versions) == 0 {
		t.Fatalf("%s: resumed stream replayed nothing past cursor %d", label, since)
	}
}

// TestWebGatewayResumeEndToEnd is the web edge's acceptance scenario: a
// WebSocket client and an SSE client subscribe to a live feed through a
// real node, receive updates, hard-disconnect, miss updates, and
// reconnect with their resume cursors — the gap replays from the ring
// buffers in order with zero duplicates, live delivery takes over
// seamlessly, and the gateway's sessions and replay hits appear on
// /metrics.
func TestWebGatewayResumeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	feedURL, stopOrigin := startFailoverOrigin(t, 250*time.Millisecond)
	defer stopOrigin()

	node, err := corona.StartLiveNode(corona.LiveConfig{
		Bind:          "127.0.0.1:0",
		WebBind:       "127.0.0.1:0",
		AdminBind:     "127.0.0.1:0",
		PollInterval:  200 * time.Millisecond,
		NodeCountHint: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	webAddr := node.WebAddr()
	if webAddr == "" {
		t.Fatal("WebAddr empty after StartLiveNode with WebBind")
	}

	// --- WebSocket client: login, subscribe, see live updates.
	ws, err := webgateway.DialWS("ws://" + webAddr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.WriteJSON(webMsg{Type: "login", Req: 1, Handle: "web-ws"}); err != nil {
		t.Fatal(err)
	}
	ack := expectWebMsg(t, ws, "ack")
	if ack.Token == "" {
		t.Fatal("login ack carried no resume token")
	}
	wsToken := ack.Token
	expectWebMsg(t, ws, "hello")
	if err := ws.WriteJSON(webMsg{Type: "subscribe", Req: 2, URL: feedURL}); err != nil {
		t.Fatal(err)
	}
	expectWebMsg(t, ws, "ack")
	wsSeen := collectNotifies(t, ws, 2)
	wsCursor := wsSeen[len(wsSeen)-1]

	// --- SSE client: connect with the channel on the request line.
	sseQuery := url.Values{"handle": {"web-sse"}, "ch": {feedURL}}
	resp, br := sseStream(t, webAddr, sseQuery.Encode(), "")
	hello := readLiveSSEEvent(t, br)
	if hello.name != "hello" {
		t.Fatalf("first SSE event %q, want hello", hello.name)
	}
	var hm webMsg
	json.Unmarshal([]byte(hello.data), &hm)
	if hm.Token == "" {
		t.Fatal("SSE hello carried no resume token")
	}
	var sseCursorID string
	var sseCursor uint64
	for n := 0; n < 2; {
		ev := readLiveSSEEvent(t, br)
		if ev.name != "notify" {
			continue
		}
		var nm webMsg
		json.Unmarshal([]byte(ev.data), &nm)
		sseCursorID, sseCursor = ev.id, nm.Version
		n++
	}

	// --- Hard-disconnect both mid-stream and let updates pass by.
	ws.Kill()
	resp.Body.Close()
	missTarget := maxU64(wsCursor, sseCursor) + 2
	deadline := time.Now().Add(20 * time.Second)
	for {
		if info, ok := node.Channel(feedURL); ok && info.LastVersion >= missTarget {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("feed never advanced past the disconnect window")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// --- WS reconnect with token + since: the gap replays in order.
	ws2, err := webgateway.DialWS("ws://" + webAddr + "/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if err := ws2.WriteJSON(webMsg{Type: "login", Req: 1, Handle: "web-ws", Token: wsToken}); err != nil {
		t.Fatal(err)
	}
	expectWebMsg(t, ws2, "ack")
	expectWebMsg(t, ws2, "hello")
	if err := ws2.WriteJSON(webMsg{Type: "subscribe", Req: 2, URL: feedURL, Since: &wsCursor}); err != nil {
		t.Fatal(err)
	}
	expectWebMsg(t, ws2, "ack")
	wsResumed := collectNotifiesUntil(t, ws2, missTarget)
	assertResumed(t, "ws", wsCursor, wsResumed)

	// --- SSE reconnect with Last-Event-ID: same property.
	sseQuery.Set("token", hm.Token)
	resp2, br2 := sseStream(t, webAddr, sseQuery.Encode(), sseCursorID)
	defer resp2.Body.Close()
	var sseResumed []uint64
	for len(sseResumed) == 0 || sseResumed[len(sseResumed)-1] < missTarget {
		ev := readLiveSSEEvent(t, br2)
		if ev.name == "snapshot_required" {
			t.Fatalf("SSE resume fell out of the replay window unexpectedly: %s", ev.data)
		}
		if ev.name != "notify" {
			continue
		}
		var nm webMsg
		json.Unmarshal([]byte(ev.data), &nm)
		sseResumed = append(sseResumed, nm.Version)
	}
	assertResumed(t, "sse", sseCursor, sseResumed)

	// --- Stats and /metrics surface the web edge.
	stats := node.Stats()
	if stats.Web.ReplayHits == 0 {
		t.Fatalf("Web stats %+v, want replay hits", stats.Web)
	}
	if stats.Web.SessionsWS < 1 {
		t.Fatalf("Web stats %+v, want a live WS session", stats.Web)
	}
	metricsResp, err := http.Get("http://" + node.AdminAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	body, err := io.ReadAll(metricsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	for _, want := range []string{
		`corona_web_sessions{transport="ws"}`,
		`corona_web_sessions{transport="sse"}`,
		"corona_web_replay_hits_total",
		"corona_web_replay_misses_total",
		"corona_web_replay_wraps_total",
		`corona_web_notify_dropped_total{cause="slow_client"}`,
		`corona_web_notify_dropped_total{cause="oversize"}`,
		`corona_web_disconnects_total{cause="slow_client"}`,
		`corona_web_disconnects_total{cause="displaced"}`,
		"corona_web_notifies_total",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// The replay-hit counter must be live, not just registered.
	if !replayHitsPositive(exposition) {
		t.Errorf("/metrics corona_web_replay_hits_total not positive:\n%s", grepLines(exposition, "corona_web_"))
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func replayHitsPositive(exposition string) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "corona_web_replay_hits_total ") {
			var v float64
			fmt.Sscanf(line, "corona_web_replay_hits_total %g", &v)
			return v > 0
		}
	}
	return false
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
