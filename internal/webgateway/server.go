package webgateway

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"time"

	"corona/internal/clientproto"
)

// Session-table transport names for the two web frontends.
const (
	TransportWS  = "ws"
	TransportSSE = "sse"
)

// timings are the per-session queue bound and heartbeat a Server is built
// with. New uses liveTimings; the package's tests shorten them.
type timings struct {
	// queueLen bounds queued notify events per session, and separately
	// queued control events, as on the binary edge.
	queueLen int
	// heartbeat is the WS ping / SSE comment cadence.
	heartbeat time.Duration
}

var liveTimings = timings{
	queueLen:  clientproto.DefaultQueueLen,
	heartbeat: 25 * time.Second,
}

// sharedKeyJSON keys this package's slot in a batch's Shared cell:
// the marshaled notify JSON, encoded once per batch and reused by every
// web session's deliverer (the binary protocol's frame lives in its own
// slot of the same cell).
var sharedKeyJSON = new(byte)

// Config configures a web gateway server.
type Config struct {
	// Backend is the node (corona.LiveNode); required.
	Backend clientproto.Backend
	// Sessions is the node's client registry, shared with the binary
	// and line servers so displacement spans transports; it delivers
	// notifications to the gateway's sessions and keeps the replay
	// rings they resume from, of clientproto.DefaultReplayCap versions
	// per channel. Nil gets a private table.
	Sessions *clientproto.SessionTable
}

// Server is the web edge: an http.Handler exposing /ws (RFC 6455) and
// /sse (Server-Sent Events), both speaking a JSON projection of the
// client-protocol session model over the shared session outbox
// (clientproto.Outbox), backed by per-channel replay rings.
type Server struct {
	backend clientproto.Backend
	table   *clientproto.SessionTable
	replay  *clientproto.Replay
	edge    *clientproto.Edge[outEvent]
	// ws and sse are the gateway's framings: one keep-alive and one
	// resume path, and WS adds requests and their replies.
	ws, sse clientproto.Framing[outEvent]

	mu       sync.Mutex
	http     *http.Server
	listener net.Listener
}

// New builds a Server. observe, when set, receives per queued
// notification the time from the update's detection to the event
// entering a session's outbox (the admin plane's web_enqueue stage).
// Call Handler to mount the server, or Serve to run it on a listener.
func New(cfg Config, observe func(time.Duration)) *Server {
	return newServer(cfg, liveTimings, observe)
}

func newServer(cfg Config, tm timings, observe func(time.Duration)) *Server {
	s := &Server{
		backend: cfg.Backend,
		table:   cfg.Sessions,
		edge:    clientproto.NewEdge(tm.queueLen, encodeNotify, observe),
	}
	if s.table == nil {
		s.table = clientproto.NewSessionTable(nil)
	}
	s.replay = s.table.EnableReplay()
	s.sse = clientproto.Framing[outEvent]{
		Transport:      TransportSSE,
		Info:           hello,
		Snapshot:       snapshotRequired,
		Heartbeat:      outEvent{opcode: opPing},
		HeartbeatEvery: tm.heartbeat,
	}
	s.ws = s.sse
	s.ws.Transport = TransportWS
	s.ws.Reader = wsReader(tm.heartbeat)
	s.ws.Reply = replyWS
	s.ws.Info = func(si clientproto.ServerInfo, _ []byte) outEvent { return hello(si, nil) }
	s.ws.Write = writeWS
	return s
}

// Handler returns the gateway's mux: /ws and /sse.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ws", s.handleWS)
	mux.HandleFunc("/sse", s.handleSSE)
	return mux
}

// connKey carries an SSE request's connection in its context, so Close
// can force-close a stream that will not drain.
type connKey struct{}

// Serve runs the gateway's HTTP server on l until Close.
func (s *Server) Serve(l net.Listener) {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ConnContext: func(ctx context.Context, c net.Conn) context.Context {
			return context.WithValue(ctx, connKey{}, c)
		},
	}
	s.mu.Lock()
	s.http = srv
	s.listener = l
	s.mu.Unlock()
	go srv.Serve(l)
}

// Addr returns the serving address, empty before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close drains every live session by the edge's Close rule
// (clientproto.Edge.Shutdown) — each writes what its outbox holds,
// sessions still alive after the drain window are force-closed — then
// stops the HTTP server.
func (s *Server) Close() error {
	s.edge.Shutdown()
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Counters is the web edge's session and delivery accounting — the
// struct corona.LiveStats carries as Web. Shed and disconnect outcomes
// are split by cause: slow-client (a full queue), buffer-wrap (a resume
// cursor fell out of the replay window and was answered
// snapshot-required), and displaced (a newer login took the handle).
type Counters struct {
	// SessionsWS and SessionsSSE count logged-in sessions by transport.
	SessionsWS  int
	SessionsSSE int
	// DroppedSlowClient counts notify events evicted from full queues.
	DroppedSlowClient uint64
	// DroppedOversize counts notify events beyond the 1 MiB message
	// bound, dropped before any queue.
	DroppedOversize uint64
	// DisconnectsSlowClient counts sessions closed because their bound of
	// queued control events was reached.
	DisconnectsSlowClient uint64
	// DisconnectsDisplaced counts sessions closed by a displacing login.
	DisconnectsDisplaced uint64
	// ReplayHits counts resume cursors served completely from the ring;
	// ReplayMissesBufferWrap counts cursors past the window (the
	// buffer-wrap outcome, answered snapshot-required); ReplayWraps
	// counts ring entries overwritten by wrap-around.
	ReplayHits             uint64
	ReplayMissesBufferWrap uint64
	ReplayWraps            uint64
	// Notifies counts notify events queued across all sessions.
	Notifies uint64
}

// Counters snapshots the gateway's counters.
func (s *Server) Counters() Counters {
	e, r := s.edge.Stats(), s.replay.Stats()
	return Counters{
		SessionsWS:             s.table.Count(TransportWS),
		SessionsSSE:            s.table.Count(TransportSSE),
		DroppedSlowClient:      e.DroppedSlow,
		DroppedOversize:        e.DroppedOversize,
		DisconnectsSlowClient:  e.ClosedSlow,
		DisconnectsDisplaced:   e.ClosedDisplaced,
		ReplayHits:             r.Hits,
		ReplayMissesBufferWrap: r.Misses,
		ReplayWraps:            r.Wraps,
		Notifies:               e.Notifies,
	}
}

// clientMsg is one client-to-server JSON message (WS only; SSE carries
// the same fields in query parameters).
type clientMsg struct {
	Type   string  `json:"type"` // login | subscribe | unsubscribe | ping
	Req    uint64  `json:"req"`
	Handle string  `json:"handle,omitempty"`
	Token  string  `json:"token,omitempty"` // hex resume token
	URL    string  `json:"url,omitempty"`
	Since  *uint64 `json:"since,omitempty"` // resume cursor: replay versions > since
}

// serverMsg is one server-to-client JSON message; Type doubles as the
// SSE event name.
type serverMsg struct {
	Type    string   `json:"type"` // ack | nak | hello | notify | snapshot_required
	Req     uint64   `json:"req,omitempty"`
	Token   string   `json:"token,omitempty"`
	Reason  string   `json:"reason,omitempty"`
	Node    string   `json:"node,omitempty"`
	Peers   []string `json:"peers,omitempty"`
	Channel string   `json:"channel,omitempty"`
	Version uint64   `json:"version,omitempty"`
	Diff    string   `json:"diff,omitempty"`
	At      int64    `json:"at,omitempty"` // detection time, Unix nanoseconds
}

// outEvent is one queued server-to-client event: a JSON message (WS
// text frame, SSE event named name), or a heartbeat (WS ping, SSE
// comment), or a WS pong.
type outEvent struct {
	name   string
	opcode byte
	json   []byte
}

// event is the queued form of a JSON message.
func event(m serverMsg) outEvent {
	b, _ := json.Marshal(m)
	return outEvent{name: m.Type, opcode: opText, json: b}
}

// encodeNotify is the web edge's notify encoder: the first web recipient
// of a batch marshals the JSON into the batch's Shared cell (the cell
// contract: deliverers of one batch run sequentially) and every later
// one reuses the bytes.
func encodeNotify(n clientproto.Notification) (outEvent, bool) {
	data, _ := n.Shared.Load(sharedKeyJSON).([]byte)
	if data == nil {
		var nanos int64
		if !n.At.IsZero() {
			nanos = n.At.UnixNano()
		}
		data = event(serverMsg{Type: "notify", Channel: n.Channel, Version: n.Version, Diff: n.Diff, At: nanos}).json
		n.Shared.Store(sharedKeyJSON, data)
	}
	return outEvent{name: "notify", opcode: opText, json: data}, len(data) <= maxWSMessage
}

// hello is the web framings' ServerInfo; an SSE hello carries the resume
// token, since SSE has no login ack.
func hello(si clientproto.ServerInfo, token []byte) outEvent {
	return event(serverMsg{Type: "hello", Token: hex.EncodeToString(token), Node: si.Node, Peers: si.Peers})
}

// snapshotRequired is the web framings' answer to a resume cursor the
// replay ring has wrapped past.
func snapshotRequired(channel string, newest uint64) outEvent {
	return event(serverMsg{Type: "snapshot_required", Channel: channel, Version: newest})
}

// writeWS is the WS framing of a queued event.
func writeWS(bw *bufio.Writer, q clientproto.Queued[outEvent]) error {
	if _, err := bw.Write(appendWSHeader(bw.AvailableBuffer(), q.Msg.opcode, len(q.Msg.json))); err != nil {
		return err
	}
	_, err := bw.Write(q.Msg.json)
	return err
}

// replyWS renders a request's outcome as the ack or nak echoing its req.
func replyWS(req clientproto.Frame, token []byte, err error) outEvent {
	if err != nil {
		return event(serverMsg{Type: "nak", Req: clientproto.RequestID(req), Reason: err.Error()})
	}
	return event(serverMsg{Type: "ack", Req: clientproto.RequestID(req), Token: hex.EncodeToString(token)})
}

// wsReader returns the WS framing's request reader: one JSON clientMsg
// per message. Pings get pongs; any control frame proves liveness and
// extends the read deadline, which three missed heartbeats let lapse.
func wsReader(heartbeat time.Duration) func(net.Conn, *clientproto.Outbox[outEvent]) func() (clientproto.Frame, error) {
	return func(conn net.Conn, out *clientproto.Outbox[outEvent]) func() (clientproto.Frame, error) {
		br := bufio.NewReader(conn)
		onControl := func(opcode byte, payload []byte) error {
			conn.SetReadDeadline(time.Now().Add(3 * heartbeat))
			if opcode == opPing {
				out.Control(outEvent{opcode: opPong, json: payload})
			}
			return nil
		}
		return func() (clientproto.Frame, error) {
			conn.SetReadDeadline(time.Now().Add(3 * heartbeat))
			_, data, err := readWSMessage(br, true, onControl)
			if err != nil {
				return nil, err // EOF, deadline, close frame, or malformed framing
			}
			var m clientMsg
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, clientproto.BadRequest("malformed message: " + err.Error())
			}
			switch m.Type {
			case "login":
				token, err := hex.DecodeString(m.Token)
				req := &clientproto.Login{ReqID: m.Req, Handle: m.Handle, ResumeToken: token}
				if err != nil {
					return req, clientproto.BadRequest("malformed token: not hex")
				}
				return req, nil
			case "subscribe":
				return &clientproto.Subscribe{ReqID: m.Req, URL: m.URL, Since: m.Since}, nil
			case "unsubscribe":
				return &clientproto.Unsubscribe{ReqID: m.Req, URL: m.URL}, nil
			case "ping":
				return &clientproto.Ping{ReqID: m.Req}, nil
			}
			// The Ping only carries the req the nak echoes.
			return &clientproto.Ping{ReqID: m.Req}, clientproto.BadRequest("unknown message type " + m.Type)
		}
	}
}

// hijacked is a connection taken over from the HTTP server: its reads go
// through the reader the server had buffered them in.
type hijacked struct {
	net.Conn
	br *bufio.Reader
}

func (c hijacked) Read(p []byte) (int, error) { return c.br.Read(p) }

// handleWS serves one WebSocket connection: hijack, then the WS
// framing's session (clientproto.Session.Serve).
func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	conn, br, err := upgradeWS(w, r)
	if err != nil {
		return
	}
	sess, ok := clientproto.OpenSession(s.edge, &s.ws, s.backend, s.table, func() { conn.Close() })
	if !ok {
		conn.Close()
		return
	}
	sess.Serve(hijacked{conn, br})
}
