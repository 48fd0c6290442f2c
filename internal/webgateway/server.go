package webgateway

import (
	"encoding/hex"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/clientproto"
	"corona/internal/im"
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

// Policy is the slow-client policy: what happens when a session's
// outbound queue is full and another notification arrives.
type Policy int

const (
	// PolicyDropOldest evicts the oldest queued notification to make
	// room (the client sees a version gap and can re-subscribe with
	// since to fetch it from the replay buffer). The default.
	PolicyDropOldest Policy = iota
	// PolicyDisconnect closes the session instead; the client reconnects
	// with its cursor and replays the backlog at its own pace.
	PolicyDisconnect
)

// Server tunables.
const (
	defaultQueueLen   = 256
	defaultLeaseEvery = 30 * time.Second
	defaultHeartbeat  = 25 * time.Second
	wsWriteTimeout    = 10 * time.Second
)

// sharedKeyJSON keys this package's slot in a batch's im.Shared cell:
// the marshaled notify JSON, encoded once per batch and reused by every
// web session's deliverer (the binary protocol's frame lives in its own
// slot of the same cell).
var sharedKeyJSON = new(byte)

// Config configures a web gateway server.
type Config struct {
	// Backend is the node; required.
	Backend Backend
	// Sessions is the resume-token session table, shared with the binary
	// protocol server so displacement spans transports. Nil gets a
	// private table.
	Sessions *clientproto.SessionTable
	// ReplayCap is the per-channel replay ring capacity
	// (DefaultReplayCap when zero).
	ReplayCap int
	// QueueLen is the per-session outbound event queue depth (default
	// 256, matching the binary edge).
	QueueLen int
	// SlowPolicy picks what a full queue does to a slow client.
	SlowPolicy Policy
	// LeaseEvery is the session lease-refresh cadence (default 30s,
	// matching the SDK's ping loop); the refresh is what keeps a web
	// subscriber's entry-node lease alive at channel owners.
	LeaseEvery time.Duration
	// HeartbeatEvery is the WS ping / SSE comment cadence (default 25s).
	HeartbeatEvery time.Duration
}

// Server is the web edge: an http.Handler exposing /ws (RFC 6455) and
// /sse (Server-Sent Events), both speaking a JSON projection of the
// client-protocol session model, backed by per-channel replay rings.
type Server struct {
	backend Backend
	table   *clientproto.SessionTable
	replay  *Replay

	queueLen   int
	slowPolicy Policy
	leaseEvery time.Duration
	heartbeat  time.Duration

	mu       sync.Mutex
	sessions map[*webSession]struct{}
	closed   bool
	http     *http.Server
	listener net.Listener

	sessionsWS    atomic.Int64
	sessionsSSE   atomic.Int64
	dropsSlow     atomic.Uint64 // notify events evicted or refused, full queue
	dropsOversize atomic.Uint64 // notify events beyond the message bound
	discSlow      atomic.Uint64 // sessions closed by PolicyDisconnect
	discDisplaced atomic.Uint64 // sessions closed by a displacing login
	notifies      atomic.Uint64 // notify events enqueued across sessions

	// notifyLatency, when set, observes detection-to-web-enqueue latency
	// per delivered notification; the admin plane wires it into the
	// web_enqueue stage of the notification latency histogram.
	notifyLatency atomic.Pointer[func(time.Duration)]
}

// disconnect causes, recorded once per closed session.
type closeCause int

const (
	causeNone      closeCause = iota
	causeGone                 // client went away or server shut down
	causeSlow                 // PolicyDisconnect on a full queue
	causeDisplaced            // a newer login took the handle
)

// New builds a Server. Call Handler to mount it, or Serve to run it on
// a listener.
func New(cfg Config) *Server {
	s := &Server{
		backend:    cfg.Backend,
		table:      cfg.Sessions,
		replay:     NewReplay(cfg.ReplayCap),
		queueLen:   cfg.QueueLen,
		slowPolicy: cfg.SlowPolicy,
		leaseEvery: cfg.LeaseEvery,
		heartbeat:  cfg.HeartbeatEvery,
		sessions:   make(map[*webSession]struct{}),
	}
	if s.table == nil {
		s.table = clientproto.NewSessionTable()
	}
	if s.queueLen <= 0 {
		s.queueLen = defaultQueueLen
	}
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

// Serve runs the gateway's HTTP server on l until Close.
func (s *Server) Serve(l net.Listener) {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
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

// Close stops the HTTP server and every live session. Hijacked WS
// connections are outside the http.Server's reach, so sessions are
// closed explicitly.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	srv := s.http
	live := make([]*webSession, 0, len(s.sessions))
	for ws := range s.sessions {
		live = append(live, ws)
	}
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close()
	}
	for _, ws := range live {
		ws.close(causeGone)
	}
	return err
}

// Closed reports whether Close has run.
func (s *Server) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Tap returns the im.Gateway update tap feeding the replay rings;
// install it with Gateway.SetTap.
func (s *Server) Tap() im.Tap {
	return func(channel string, version uint64, diff string, at time.Time) {
		s.replay.Append(channel, version, diff, at)
	}
}

// Replay exposes the replay memory (tests and benchmarks).
func (s *Server) Replay() *Replay { return s.replay }

// SetNotifyLatencyObserver installs a callback observing, per delivered
// notification, the elapsed time between the update's detection
// timestamp and the event entering a web session's outbound queue.
func (s *Server) SetNotifyLatencyObserver(obs func(time.Duration)) {
	s.notifyLatency.Store(&obs)
}

func (s *Server) observeEnqueue(at time.Time) {
	p := s.notifyLatency.Load()
	if p == nil || *p == nil || at.IsZero() {
		return
	}
	(*p)(time.Since(at))
}

// Counters is one snapshot of the gateway's delivery accounting.
type Counters struct {
	SessionsWS  int
	SessionsSSE int
	// NotifyDroppedSlow counts notify events shed on full queues
	// (evicted under PolicyDropOldest, or refused when the queue held
	// only control events).
	NotifyDroppedSlow uint64
	// NotifyDroppedOversize counts notify events beyond the 1 MiB
	// message bound, dropped before any queue.
	NotifyDroppedOversize uint64
	// DisconnectsSlow counts sessions closed by PolicyDisconnect.
	DisconnectsSlow uint64
	// DisconnectsDisplaced counts sessions closed by a displacing login.
	DisconnectsDisplaced uint64
	// Notifies counts notify events enqueued across all sessions.
	Notifies uint64
	Replay   ReplayStats
}

// Counters snapshots the gateway's counters.
func (s *Server) Counters() Counters {
	return Counters{
		SessionsWS:            int(s.sessionsWS.Load()),
		SessionsSSE:           int(s.sessionsSSE.Load()),
		NotifyDroppedSlow:     s.dropsSlow.Load(),
		NotifyDroppedOversize: s.dropsOversize.Load(),
		DisconnectsSlow:       s.discSlow.Load(),
		DisconnectsDisplaced:  s.discDisplaced.Load(),
		Notifies:              s.notifies.Load(),
		Replay:                s.replay.Stats(),
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
		hits.Set(c.Replay.Hits)
		misses.Set(c.Replay.Misses)
		wraps.Set(c.Replay.Wraps)
		dropSlow.Set(c.NotifyDroppedSlow)
		dropOversize.Set(c.NotifyDroppedOversize)
		discSlow.Set(c.DisconnectsSlow)
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

// outEvent is one queued server-to-client event. Only notify events are
// droppable; control events (acks, hello, snapshot-required, WS pings)
// always queue.
type outEvent struct {
	name    string // SSE event name; "notify" marks droppable events
	opcode  byte   // WS frame opcode (opText for JSON; opPing for heartbeats)
	json    []byte
	channel string
	version uint64
}

func (e outEvent) notify() bool { return e.name == "notify" }

func marshalMsg(m serverMsg) []byte {
	b, _ := json.Marshal(m)
	return b
}

func notifyJSON(channel string, version uint64, diff string, at time.Time) []byte {
	var nanos int64
	if !at.IsZero() {
		nanos = at.UnixNano()
	}
	return marshalMsg(serverMsg{Type: "notify", Channel: channel, Version: version, Diff: diff, At: nanos})
}

// webSession is one live WS or SSE session's server-side state. The
// single mutex orders three things that must not interleave: live
// delivery (the gateway deliverer), replay (the subscribe path), and
// the per-channel version watermark that makes their union duplicate-
// free and monotonic. Events enter the queue already filtered, so the
// writer emits them in queue order with no further checks.
type webSession struct {
	s         *Server
	transport string
	handle    string
	conn      net.Conn // WS only; SSE writes through the handler

	mu     sync.Mutex
	queue  []outEvent
	kick   chan struct{} // cap 1: the writer drains the whole queue per kick
	done   chan struct{} // closed once, by close()
	closed bool
	// last is the per-channel delivered-version watermark: an event is
	// enqueued only with a version strictly above it, so replayed and
	// live notifications merge without duplicates. Its key set doubles
	// as the session's channel set for lease refreshes.
	last map[string]uint64
	// gated marks channels mid-subscribe: live deliveries are suppressed
	// (the replay ring holds them — the gateway tap runs before any
	// deliverer) until the subscribe path replays and ungates.
	gated map[string]struct{}
}

func (s *Server) newSession(transport string, conn net.Conn) *webSession {
	ws := &webSession{
		s:         s,
		transport: transport,
		conn:      conn,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		last:      make(map[string]uint64),
		gated:     make(map[string]struct{}),
	}
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.sessions[ws] = struct{}{}
	}
	s.mu.Unlock()
	if closed {
		ws.close(causeGone)
		return ws
	}
	if transport == TransportWS {
		s.sessionsWS.Add(1)
	} else {
		s.sessionsSSE.Add(1)
	}
	return ws
}

// close tears the session down once, recording why. Safe from any
// goroutine, including under the session table's lock (it never
// re-enters the table).
func (ws *webSession) close(cause closeCause) {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		return
	}
	ws.closed = true
	close(ws.done)
	ws.mu.Unlock()
	switch cause {
	case causeSlow:
		ws.s.discSlow.Add(1)
	case causeDisplaced:
		ws.s.discDisplaced.Add(1)
	}
	if ws.conn != nil {
		ws.conn.Close()
	}
	ws.s.mu.Lock()
	delete(ws.s.sessions, ws)
	ws.s.mu.Unlock()
	if ws.transport == TransportWS {
		ws.s.sessionsWS.Add(-1)
	} else {
		ws.s.sessionsSSE.Add(-1)
	}
}

// enqueueLocked appends one event, applying the slow-client policy to
// notify events when the queue is full; callers hold ws.mu.
func (ws *webSession) enqueueLocked(ev outEvent) {
	if ev.notify() && len(ws.queue) >= ws.s.queueLen {
		if ws.s.slowPolicy == PolicyDisconnect {
			ws.s.dropsSlow.Add(1)
			// Unlock around close: it re-takes ws.mu.
			ws.mu.Unlock()
			ws.close(causeSlow)
			ws.mu.Lock()
			return
		}
		// Drop-oldest: evict the oldest queued notify. With none to
		// evict (a queue full of control events — not a real shape, but
		// possible), shed the new one instead.
		ws.s.dropsSlow.Add(1)
		evicted := false
		for i := range ws.queue {
			if ws.queue[i].notify() {
				copy(ws.queue[i:], ws.queue[i+1:])
				ws.queue = ws.queue[:len(ws.queue)-1]
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
	ws.queue = append(ws.queue, ev)
	select {
	case ws.kick <- struct{}{}:
	default:
	}
}

// control enqueues a control event.
func (ws *webSession) control(ev outEvent) {
	ws.mu.Lock()
	if !ws.closed {
		ws.enqueueLocked(ev)
	}
	ws.mu.Unlock()
}

// deliver is the session's gateway deliverer: it encodes the notify
// JSON once per batch through the Shared cell (synchronously — the cell
// contract) and enqueues it under the watermark/gate filters.
func (ws *webSession) deliver(n im.Notification) {
	data, _ := n.Shared.Load(sharedKeyJSON).([]byte)
	if data == nil {
		data = notifyJSON(n.Channel, n.Version, n.Diff, n.At)
		n.Shared.Store(sharedKeyJSON, data)
	}
	if len(data) > maxWSMessage {
		ws.s.dropsOversize.Add(1)
		return
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return
	}
	if _, gated := ws.gated[n.Channel]; gated {
		return // mid-subscribe; the replay scan picks it out of the ring
	}
	if n.Version <= ws.last[n.Channel] {
		return // duplicate (replayed already, or a re-observed batch)
	}
	ws.last[n.Channel] = n.Version
	ws.enqueueLocked(outEvent{name: "notify", opcode: opText, json: data, channel: n.Channel, version: n.Version})
	ws.s.notifies.Add(1)
	ws.s.observeEnqueue(n.At)
}

// gate suppresses live delivery for a channel while its subscribe is in
// flight.
func (ws *webSession) gate(url string) {
	ws.mu.Lock()
	ws.gated[url] = struct{}{}
	ws.mu.Unlock()
}

// replayAndUngate finishes a subscribe: with a cursor, it replays the
// buffered gap (or signals snapshot-required) and advances the
// watermark; without one, delivery simply starts live. The scan, the
// watermark update, and the ungate form one critical section with the
// deliverer's filter, which is what makes the replayed and live streams
// merge exactly-once: any live update suppressed by the gate was
// appended to the ring before its deliverer ran (the tap ordering
// guarantee), so the scan below either sees it or a newer one.
func (ws *webSession) replayAndUngate(url string, since *uint64) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	defer delete(ws.gated, url)
	if _, tracked := ws.last[url]; !tracked {
		ws.last[url] = 0
	}
	if ws.closed || since == nil {
		return
	}
	entries, complete := ws.s.replay.From(url, *since)
	if !complete {
		newest := ws.s.replay.Newest(url)
		if newest > ws.last[url] {
			ws.last[url] = newest
		}
		ws.enqueueLocked(outEvent{name: "snapshot_required", opcode: opText,
			json: marshalMsg(serverMsg{Type: "snapshot_required", Channel: url, Version: newest})})
		return
	}
	for _, e := range entries {
		if e.Version <= ws.last[url] {
			continue
		}
		ws.last[url] = e.Version
		data := notifyJSON(url, e.Version, e.Diff, e.At)
		if len(data) > maxWSMessage {
			ws.s.dropsOversize.Add(1)
			continue
		}
		ws.enqueueLocked(outEvent{name: "notify", opcode: opText, json: data, channel: url, version: e.Version})
		ws.s.notifies.Add(1)
	}
}

// drain returns every queued event, or nil; the writer calls it per
// kick.
func (ws *webSession) drain() []outEvent {
	ws.mu.Lock()
	batch := ws.queue
	ws.queue = nil
	ws.mu.Unlock()
	return batch
}

// refreshLeases heartbeats the session's channels at their owners; what
// keeps web subscribers inside the entry-node lease-failover machinery.
// Runs on the ticker goroutine, so the handle (written at login) and the
// channel set are both read under the session lock.
func (ws *webSession) refreshLeases() {
	ws.mu.Lock()
	handle := ws.handle
	urls := make([]string, 0, len(ws.last))
	for url := range ws.last {
		urls = append(urls, url)
	}
	ws.mu.Unlock()
	if handle == "" || len(urls) == 0 {
		return
	}
	ws.s.backend.RefreshLeases(handle, urls)
}

// handleWS serves one WebSocket connection: hijack, then a read loop
// dispatching JSON messages, a writer goroutine draining the event
// queue, and a heartbeat/lease ticker loop.
func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	conn, br, err := upgradeWS(w, r)
	if err != nil {
		return
	}
	ws := s.newSession(TransportWS, conn)
	// Teardown order matters: the writer and ticker goroutines exit on
	// ws.done, so the session must close BEFORE waiting for them.
	var writerWG, tickerWG sync.WaitGroup
	defer func() {
		ws.close(causeGone)
		writerWG.Wait()
		tickerWG.Wait()
	}()

	// Writer: one goroutine owns the socket's write side.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var buf []byte
		for {
			select {
			case <-ws.kick:
			case <-ws.done:
				return
			}
			for _, ev := range ws.drain() {
				payload := ev.json
				if ev.opcode == opPing {
					payload = nil
				}
				buf = appendWSFrame(buf[:0], ev.opcode, payload)
				conn.SetWriteDeadline(time.Now().Add(wsWriteTimeout))
				if _, err := conn.Write(buf); err != nil {
					ws.close(causeGone)
					return
				}
			}
		}
	}()

	// Heartbeats and lease refreshes.
	tickerWG.Add(1)
	go func() {
		defer tickerWG.Done()
		hb := time.NewTicker(s.heartbeat)
		lease := time.NewTicker(s.leaseEvery)
		defer hb.Stop()
		defer lease.Stop()
		for {
			select {
			case <-ws.done:
				return
			case <-hb.C:
				ws.control(outEvent{opcode: opPing})
			case <-lease.C:
				ws.refreshLeases()
			}
		}
	}()

	var detach func()
	var sess *clientproto.TableSession
	defer func() {
		if detach != nil {
			detach()
		}
		if ws.handle != "" {
			s.table.End(ws.handle, sess)
		}
	}()

	onControl := func(opcode byte, payload []byte) error {
		// Any control traffic (a pong answering our heartbeat, a client
		// ping) proves liveness; extend the deadline so a quiet-but-
		// responsive client is not presumed dead mid-readWSMessage.
		conn.SetReadDeadline(time.Now().Add(3 * s.heartbeat))
		if opcode == opPing {
			ws.control(outEvent{opcode: opPong, json: payload})
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
			ws.control(outEvent{name: "nak", opcode: opText,
				json: marshalMsg(serverMsg{Type: "nak", Reason: "malformed message: " + err.Error()})})
			continue
		}
		nak := func(reason string) {
			ws.control(outEvent{name: "nak", opcode: opText,
				json: marshalMsg(serverMsg{Type: "nak", Req: req.Req, Reason: reason})})
		}
		switch req.Type {
		case "login":
			if ws.handle != "" {
				nak("already logged in as " + ws.handle)
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
			tok, ts, det, ok := s.table.Begin(req.Handle, token, TransportWS,
				func() { ws.close(causeDisplaced) },
				func() func() { return s.backend.Attach(req.Handle, ws.deliver) })
			if !ok {
				nak("handle in use (resume token mismatch)")
				continue
			}
			ws.mu.Lock()
			ws.handle = req.Handle // under mu: the lease ticker reads it
			ws.mu.Unlock()
			sess, detach = ts, det
			ws.control(outEvent{name: "ack", opcode: opText,
				json: marshalMsg(serverMsg{Type: "ack", Req: req.Req, Token: hex.EncodeToString(tok)})})
			info := s.backend.Info()
			ws.control(outEvent{name: "hello", opcode: opText,
				json: marshalMsg(serverMsg{Type: "hello", Node: info.Node, Peers: info.Peers})})
		case "subscribe":
			if ws.handle == "" {
				nak("not logged in")
				continue
			}
			if req.URL == "" {
				nak("empty url")
				continue
			}
			ws.gate(req.URL)
			if err := s.backend.Subscribe(ws.handle, req.URL); err != nil {
				ws.mu.Lock()
				delete(ws.gated, req.URL)
				ws.mu.Unlock()
				nak(err.Error())
				continue
			}
			ws.control(outEvent{name: "ack", opcode: opText,
				json: marshalMsg(serverMsg{Type: "ack", Req: req.Req})})
			ws.replayAndUngate(req.URL, req.Since)
		case "unsubscribe":
			if ws.handle == "" {
				nak("not logged in")
				continue
			}
			if err := s.backend.Unsubscribe(ws.handle, req.URL); err != nil {
				nak(err.Error())
				continue
			}
			ws.mu.Lock()
			delete(ws.last, req.URL)
			delete(ws.gated, req.URL)
			ws.mu.Unlock()
			ws.control(outEvent{name: "ack", opcode: opText,
				json: marshalMsg(serverMsg{Type: "ack", Req: req.Req})})
		case "ping":
			ws.control(outEvent{name: "ack", opcode: opText,
				json: marshalMsg(serverMsg{Type: "ack", Req: req.Req})})
		default:
			nak("unknown message type " + req.Type)
		}
	}
}
