package webgateway

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"corona/internal/clientproto"
)

// SSE cursor: every event's id line carries the session's full position
// as "escape(channel):version[,escape(channel):version...]" — a
// composite cursor rather than a per-event one, because the browser's
// EventSource resends only the LAST id it saw as Last-Event-ID, and the
// reconnect must resume every channel, not just the one that happened to
// update last.

// parseCursor parses a composite cursor; unparseable elements are
// skipped (a bad cursor degrades to live-only on those channels, it
// never errors the stream).
func parseCursor(s string) map[string]uint64 {
	cursor := make(map[string]uint64)
	for _, part := range strings.Split(s, ",") {
		colon := strings.LastIndexByte(part, ':')
		if colon < 0 {
			continue
		}
		channel, err := url.QueryUnescape(part[:colon])
		if err != nil || channel == "" {
			continue
		}
		version, err := strconv.ParseUint(part[colon+1:], 10, 64)
		if err != nil {
			continue
		}
		cursor[channel] = version
	}
	return cursor
}

// cursorString renders a composite cursor in sorted channel order (the
// id must be byte-stable for identical positions).
func cursorString(cursor map[string]uint64) string {
	channels := make([]string, 0, len(cursor))
	for ch := range cursor {
		channels = append(channels, ch)
	}
	sort.Strings(channels)
	var b strings.Builder
	for i, ch := range channels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(url.QueryEscape(ch))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(cursor[ch], 10))
	}
	return b.String()
}

// handleSSE serves one Server-Sent Events stream. The request line
// carries what WS messages carry: handle and token as query parameters,
// channels as repeated ch parameters; the resume cursor arrives in
// Last-Event-ID (browser reconnect) or a since parameter (curl). The
// handler goroutine is the writer: it subscribes, replays, then runs the
// outbox's writer loop into the response until the client goes away or
// the session is closed (displacement, a slow client, shutdown).
func (s *Server) handleSSE(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if _, ok := w.(http.Flusher); !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	q := r.URL.Query()
	handle := q.Get("handle")
	if handle == "" {
		http.Error(w, "handle parameter required", http.StatusBadRequest)
		return
	}
	token, err := hex.DecodeString(q.Get("token"))
	if err != nil {
		http.Error(w, "malformed token: not hex", http.StatusBadRequest)
		return
	}
	cursor := make(map[string]uint64)
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		cursor = parseCursor(id)
	} else if since := q.Get("since"); since != "" {
		cursor = parseCursor(since)
	}

	conn, _ := r.Context().Value(connKey{}).(net.Conn)
	var teardown func()
	if conn != nil {
		teardown = func() { conn.Close() }
	}
	sess, ok := clientproto.OpenSession(s.edge, &s.sse, s.backend, s.table, teardown)
	if !ok {
		http.Error(w, "gateway closed", http.StatusServiceUnavailable)
		return
	}
	defer sess.End()
	if err := sess.Login(&clientproto.Login{Handle: handle, ResumeToken: token}); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	// EventSource is CORS-governed (unlike WebSocket); the gateway
	// carries no ambient credentials, so any origin may stream.
	h.Set("Access-Control-Allow-Origin", "*")
	w.WriteHeader(http.StatusOK)

	// The writer's own cursor copy advances as events go out, so each
	// event's id is exactly the stream position after that event.
	written := make(map[string]uint64, len(cursor))

	out := sess.Outbox()
	// Subscribe each channel; per-channel failures become nak events on
	// the stream rather than killing it (the client may hold a mix of
	// valid and stale URLs after a failover).
	for _, ch := range q["ch"] {
		var since *uint64
		if v, resumed := cursor[ch]; resumed {
			since = &v
		}
		if err := sess.Subscribe(&clientproto.Subscribe{URL: ch, Since: since}); err != nil {
			out.Control(event(serverMsg{Type: "nak", Channel: ch, Reason: err.Error()}))
			continue
		}
		if since != nil {
			written[ch] = *since
		}
	}

	alive := sess.KeepAlive()
	stop := context.AfterFunc(r.Context(), func() { out.Close(clientproto.CloseGone) })
	defer stop()
	rc := http.NewResponseController(w)
	out.Drain(func(q clientproto.Queued[outEvent]) error {
		rc.SetWriteDeadline(time.Now().Add(clientproto.WriteTimeout))
		return writeSSEEvent(w, q, written)
	}, rc.Flush)
	<-alive
}

// writeSSEEvent renders one queued event as an SSE frame, advancing the
// writer's cursor on notify events; a heartbeat is a comment line.
func writeSSEEvent(w io.Writer, q clientproto.Queued[outEvent], written map[string]uint64) error {
	ev := q.Msg
	if ev.opcode == opPing {
		_, err := io.WriteString(w, ": hb\n\n")
		return err
	}
	if ev.name == "notify" {
		written[q.Channel] = q.Version
	}
	if ev.name == "notify" || ev.name == "snapshot_required" {
		if _, err := fmt.Fprintf(w, "id: %s\n", cursorString(written)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.json)
	return err
}
