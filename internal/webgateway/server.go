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
	"corona/internal/metrics"
)

// Backend is the node surface the gateway drives — identical to the
// binary protocol's, because the web edge is a projection of the same
// session model. corona.LiveNode implements it.
type Backend = clientproto.Backend

// Session-table transport names for the two web frontends.
const (
	TransportWS  = "ws"
	TransportSSE = "sse"
)

// Server tunables.
const (
	defaultLeaseEvery = 30 * time.Second
	defaultHeartbeat  = 25 * time.Second
)

// sharedKeyJSON keys this package's slot in a batch's Shared cell:
// the marshaled notify JSON, encoded once per batch and reused by every
// web session's deliverer (the binary protocol's frame lives in its own
// slot of the same cell).
var sharedKeyJSON = new(byte)

// Config configures a web gateway server.
type Config struct {
	// Backend is the node; required.
	Backend Backend
	// Sessions is the node's client registry, shared with the binary
	// and line servers so displacement spans transports; it delivers
	// notifications to the gateway's sessions and keeps the replay
	// rings they resume from. Nil gets a private table.
	Sessions *clientproto.SessionTable
	// ReplayCap is the per-channel replay ring capacity
	// (clientproto.DefaultReplayCap when zero). The table's rings are
	// created by the first gateway built on it, with that gateway's
	// capacity.
	ReplayCap int
	// QueueLen is the per-session bound on queued notify events, and
	// separately on queued control events (default 256, matching the
	// binary edge).
	QueueLen int
	// LeaseEvery is the session lease-refresh cadence (default 30s,
	// matching the SDK's ping loop); the refresh is what keeps a web
	// subscriber's entry-node lease alive at channel owners.
	LeaseEvery time.Duration
	// HeartbeatEvery is the WS ping / SSE comment cadence (default 25s).
	HeartbeatEvery time.Duration
}

// Server is the web edge: an http.Handler exposing /ws (RFC 6455) and
// /sse (Server-Sent Events), both speaking a JSON projection of the
// client-protocol session model over the shared session outbox
// (clientproto.Outbox), backed by per-channel replay rings.
type Server struct {
	backend Backend
	table   *clientproto.SessionTable
	replay  *clientproto.Replay
	edge    *clientproto.Edge[outEvent]

	leaseEvery time.Duration
	heartbeat  time.Duration

	mu       sync.Mutex
	closed   bool
	http     *http.Server
	listener net.Listener
}

// New builds a Server. observe, when set, receives per queued
// notification the time from the update's detection to the event
// entering a session's outbox (the admin plane's web_enqueue stage).
// Call Handler to mount the server, or Serve to run it on a listener.
func New(cfg Config, observe func(time.Duration)) *Server {
	s := &Server{
		backend:    cfg.Backend,
		table:      cfg.Sessions,
		edge:       clientproto.NewEdge(cfg.QueueLen, encodeNotify, observe),
		leaseEvery: cfg.LeaseEvery,
		heartbeat:  cfg.HeartbeatEvery,
	}
	if s.table == nil {
		s.table = clientproto.NewSessionTable(nil)
	}
	s.replay = s.table.EnableReplay(cfg.ReplayCap)
	if s.leaseEvery <= 0 {
		s.leaseEvery = defaultLeaseEvery
	}
	if s.heartbeat <= 0 {
		s.heartbeat = defaultHeartbeat
	}
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
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	srv := s.http
	s.mu.Unlock()
	s.edge.Shutdown()
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// Closed reports whether Close has run.
func (s *Server) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
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

// RegisterMetrics registers the gateway's instruments on a node metric
// registry (LiveNode.Metrics()): session gauges by transport, replay
// hit/miss/wrap counters, and drop/disconnect counters by cause, all
// refreshed from one Counters snapshot per scrape.
func (s *Server) RegisterMetrics(reg *metrics.Registry) {
	sessions := reg.GaugeVec("corona_web_sessions",
		"Web-gateway sessions currently attached, by transport.", "transport")
	sessWS, sessSSE := sessions.With(TransportWS), sessions.With(TransportSSE)
	hits := reg.Counter("corona_web_replay_hits_total",
		"Resume cursors served completely from the replay ring.")
	misses := reg.Counter("corona_web_replay_misses_total",
		"Resume cursors past the replay window, answered snapshot-required.")
	wraps := reg.Counter("corona_web_replay_wraps_total",
		"Replay ring entries overwritten by wrap-around.")
	drops := reg.CounterVec("corona_web_notify_dropped_total",
		"Web notify events shed before delivery, by cause.", "cause")
	dropSlow, dropOversize := drops.With("slow_client"), drops.With("oversize")
	disc := reg.CounterVec("corona_web_disconnects_total",
		"Web sessions closed by the gateway, by cause.", "cause")
	discSlow, discDisplaced := disc.With("slow_client"), disc.With("displaced")
	notifies := reg.Counter("corona_web_notifies_total",
		"Notify events enqueued to web sessions.")
	reg.OnGather(func() {
		c := s.Counters()
		sessWS.Set(float64(c.SessionsWS))
		sessSSE.Set(float64(c.SessionsSSE))
		hits.Set(c.ReplayHits)
		misses.Set(c.ReplayMissesBufferWrap)
		wraps.Set(c.ReplayWraps)
		dropSlow.Set(c.DroppedSlowClient)
		dropOversize.Set(c.DroppedOversize)
		discSlow.Set(c.DisconnectsSlowClient)
		discDisplaced.Set(c.DisconnectsDisplaced)
		notifies.Set(c.Notifies)
	})
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

// webSession is one live WS or SSE session: its outbox, and the handle
// its lease refreshes name (set at login, read by the keep-alive loop).
type webSession struct {
	out *clientproto.Outbox[outEvent]

	mu     sync.Mutex
	handle string
}

// open starts a session on the edge; false once the gateway is closed.
// conn, when known, is what a displaced or undrainable session's
// teardown closes.
func (s *Server) open(conn net.Conn) (*webSession, bool) {
	var teardown func()
	if conn != nil {
		teardown = func() { conn.Close() }
	}
	out, ok := s.edge.Open(teardown)
	if !ok {
		return nil, false
	}
	return &webSession{out: out}, true
}

func (ws *webSession) login(handle string) {
	ws.mu.Lock()
	ws.handle = handle
	ws.mu.Unlock()
}

// keepAlive queues a heartbeat every HeartbeatEvery and refreshes the
// session's entry-node leases at channel owners every LeaseEvery — what
// keeps web subscribers inside the lease-failover machinery — until the
// outbox closes. The returned channel is closed when it stops.
func (s *Server) keepAlive(ws *webSession) <-chan struct{} {
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		hb := time.NewTicker(s.heartbeat)
		lease := time.NewTicker(s.leaseEvery)
		defer hb.Stop()
		defer lease.Stop()
		for {
			select {
			case <-ws.out.Done():
				return
			case <-hb.C:
				ws.out.Control(outEvent{opcode: opPing})
			case <-lease.C:
				ws.mu.Lock()
				handle := ws.handle
				ws.mu.Unlock()
				if urls := ws.out.Channels(); handle != "" && len(urls) > 0 {
					s.backend.RefreshLeases(handle, urls)
				}
			}
		}
	}()
	return stopped
}

// catchUp replays what a resuming subscriber missed on url: with a
// cursor, every buffered version above it — or snapshot_required, with
// the newest version known, when the ring has wrapped past the cursor.
// Without one, delivery simply starts live.
func (s *Server) catchUp(g clientproto.Gap[outEvent], url string, since *uint64) {
	if since == nil {
		return
	}
	entries, complete := s.replay.From(url, *since)
	if !complete {
		newest := s.replay.Newest(url)
		g.Skip(newest, event(serverMsg{Type: "snapshot_required", Channel: url, Version: newest}))
		return
	}
	for _, e := range entries {
		g.Replay(clientproto.Notification{Channel: url, Version: e.Version, Diff: e.Diff, At: e.At, Shared: &clientproto.Shared{}})
	}
}

// writeWS is the WS framing of a queued event.
func writeWS(bw *bufio.Writer, q clientproto.Queued[outEvent]) error {
	if _, err := bw.Write(appendWSHeader(bw.AvailableBuffer(), q.Msg.opcode, len(q.Msg.json))); err != nil {
		return err
	}
	_, err := bw.Write(q.Msg.json)
	return err
}

// handleWS serves one WebSocket connection: hijack, then a read loop
// dispatching JSON messages, with the outbox's writer loop and the
// keep-alive loop beside it.
func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	conn, br, err := upgradeWS(w, r)
	if err != nil {
		return
	}
	ws, ok := s.open(conn)
	if !ok {
		conn.Close()
		return
	}
	stopped := ws.out.Pump(conn, writeWS)
	alive := s.keepAlive(ws)
	defer func() {
		ws.out.Close(clientproto.CloseGone)
		<-stopped
		<-alive
		ws.out.End()
	}()

	var handle string
	var sess *clientproto.TableSession
	defer func() {
		if handle != "" {
			s.table.End(handle, sess)
		}
	}()

	onControl := func(opcode byte, payload []byte) error {
		// Any control traffic (a pong answering our heartbeat, a client
		// ping) proves liveness; extend the deadline so a quiet-but-
		// responsive client is not presumed dead mid-readWSMessage.
		conn.SetReadDeadline(time.Now().Add(3 * s.heartbeat))
		if opcode == opPing {
			ws.out.Control(outEvent{opcode: opPong, json: payload})
		}
		return nil
	}
	for {
		// The heartbeat keeps healthy connections inside the deadline;
		// three missed rounds reads as a dead peer.
		conn.SetReadDeadline(time.Now().Add(3 * s.heartbeat))
		_, data, err := readWSMessage(br, true, onControl)
		if err != nil {
			return // EOF, deadline, close frame, or malformed framing
		}
		var req clientMsg
		if err := json.Unmarshal(data, &req); err != nil {
			ws.out.Control(event(serverMsg{Type: "nak", Reason: "malformed message: " + err.Error()}))
			continue
		}
		nak := func(reason string) {
			ws.out.Control(event(serverMsg{Type: "nak", Req: req.Req, Reason: reason}))
		}
		switch req.Type {
		case "login":
			if handle != "" {
				nak("already logged in as " + handle)
				continue
			}
			if req.Handle == "" {
				nak("empty handle")
				continue
			}
			token, err := hex.DecodeString(req.Token)
			if err != nil {
				nak("malformed token: not hex")
				continue
			}
			tok, ts, ok := s.table.Begin(req.Handle, token, TransportWS,
				func() { ws.out.Close(clientproto.CloseDisplaced) }, ws.out.Deliver)
			if !ok {
				nak("handle in use (resume token mismatch)")
				continue
			}
			handle, sess = req.Handle, ts
			ws.login(handle)
			ws.out.Control(event(serverMsg{Type: "ack", Req: req.Req, Token: hex.EncodeToString(tok)}))
			info := s.backend.Info()
			ws.out.Control(event(serverMsg{Type: "hello", Node: info.Node, Peers: info.Peers}))
		case "subscribe":
			if handle == "" {
				nak("not logged in")
				continue
			}
			if req.URL == "" {
				nak("empty url")
				continue
			}
			err := ws.out.Subscribe(req.URL,
				func() error { return s.backend.Subscribe(handle, req.URL) },
				func(g clientproto.Gap[outEvent]) {
					g.Control(event(serverMsg{Type: "ack", Req: req.Req}))
					s.catchUp(g, req.URL, req.Since)
				})
			if err != nil {
				nak(err.Error())
			}
		case "unsubscribe":
			if handle == "" {
				nak("not logged in")
				continue
			}
			if err := s.backend.Unsubscribe(handle, req.URL); err != nil {
				nak(err.Error())
				continue
			}
			ws.out.Forget(req.URL)
			ws.out.Control(event(serverMsg{Type: "ack", Req: req.Req}))
		case "ping":
			ws.out.Control(event(serverMsg{Type: "ack", Req: req.Req}))
		default:
			nak("unknown message type " + req.Type)
		}
	}
}
