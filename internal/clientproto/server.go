package clientproto

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// tokenLen is the resume-token size in bytes.
const tokenLen = 16

// acceptRetryMin and acceptRetryMax bound the pause before a server
// retries a failed Accept (net/http's Server.Serve uses the same
// schedule): a listener out of file descriptors recovers when some
// close, so the server waits instead of refusing clients for good.
const (
	acceptRetryMin = 5 * time.Millisecond
	acceptRetryMax = time.Second
)

// Backend is the node surface the protocol server drives: subscription
// calls and the node's ServerInfo advertisement. Notifications reach a
// session through the SessionTable it logged in to. corona.LiveNode
// implements it.
type Backend interface {
	// Subscribe registers a client's interest in a channel URL, with
	// this node as the client's entry point.
	Subscribe(client, url string) error
	// Unsubscribe removes it.
	Unsubscribe(client, url string) error
	// RefreshLeases heartbeats entry-node liveness for an attached
	// client's channels: each channel owner refreshes the subscriber's
	// lease and re-points its entry record at this node.
	RefreshLeases(client string, urls []string)
	// LeaseCadence is how often a session refreshes its leases: a
	// quarter of the node's lease TTL.
	LeaseCadence() time.Duration
	// Info returns the node's current ServerInfo advertisement.
	Info() ServerInfo
}

// sharedFrame is a pre-encoded Notify frame shared across connections:
// the notify encoder builds the frame once per batch (the frame body
// excludes the client handle, so the bytes are identical for every
// recipient) and every subscriber's outbox queues the same pointer,
// which the writer copies out directly instead of re-encoding. buf is
// the full wire form — length prefix, type byte, body — and is never
// mutated after encode. oversize marks a frame beyond MaxFrame, detected
// once.
type sharedFrame struct {
	buf      []byte
	oversize bool
}

// sharedKeyFrame keys this package's slot in a batch's Shared cell;
// other delivery layers (the web gateway's JSON encoding) hold their own
// slots in the same cell.
var sharedKeyFrame = new(byte)

func (f *sharedFrame) frameType() byte { return TypeNotify }
func (f *sharedFrame) appendBody(dst []byte) []byte {
	return append(dst, f.buf[5:]...) // skip length prefix + type byte
}

// encodeNotify is the binary edge's notify encoder: the first recipient
// of a batch encodes the frame into the batch's Shared cell and every
// later one reuses the bytes. Deliverers for one batch run sequentially
// on NotifyBatch's goroutine, so the cell needs no locking.
func encodeNotify(n Notification) (Frame, bool) {
	sf, _ := n.Shared.Load(sharedKeyFrame).(*sharedFrame)
	if sf == nil {
		b := AppendFrame(nil, &Notify{Channel: n.Channel, Version: n.Version, Diff: n.Diff, At: n.At})
		sf = &sharedFrame{buf: b, oversize: len(b)-4 > MaxFrame}
		n.Shared.Store(sharedKeyFrame, sf)
	}
	return sf, !sf.oversize
}

// TransportBinary is the binary framing's transport name in the
// session table; the line framing registers its sessions as "line", the
// web gateway as "ws" and "sse".
const TransportBinary = "binary"

// binaryFraming is the length-framed binary protocol this package's doc
// specifies.
var binaryFraming = Framing[Frame]{
	Transport: TransportBinary,
	Hello:     Negotiate,
	Reader: func(conn net.Conn, _ *Outbox[Frame]) func() (Frame, error) {
		br := bufio.NewReader(conn)
		return func() (Frame, error) { return ReadFrame(br) }
	},
	Reply:      replyFrame,
	Info:       func(si ServerInfo, _ []byte) Frame { return &si },
	InfoOnPing: true,
	Write:      writeFrame,
}

// Framing is one socket encoding of the client session model. A Session
// runs the session — outbox, handle claim, request dispatch, resume,
// keep-alive — and calls its framing only to read requests and to
// render what goes back. The web gateway defines the WS and SSE ones.
type Framing[T any] struct {
	// Transport names the framing's sessions in the session table.
	Transport string
	// Hello runs the connection's opening exchange; nil for none.
	Hello func(io.ReadWriter) error
	// Reader returns the connection's request reader, which may queue
	// answers of its own (a WS pong) on out. Each call yields the next
	// *Login, *Subscribe, *Unsubscribe, *Ping or *quit.
	// A BadRequest error is answered with the reply to the request it
	// comes with, if any, and the session reads on; any other error ends
	// the session.
	Reader func(conn net.Conn, out *Outbox[T]) func() (Frame, error)
	// Reply renders a request's outcome: err is nil on success, token is
	// set only on a login's success. Nil when nothing is answered (SSE).
	Reply func(req Frame, token []byte, err error) T
	// Info renders the ServerInfo pushed after a login's reply (token is
	// the login's), and after each ping when InfoOnPing is set; nil when
	// the framing carries none.
	Info       func(si ServerInfo, token []byte) T
	InfoOnPing bool
	// Snapshot renders the answer to a resume cursor the replay rings
	// have wrapped past: the newest version, which the client refetches.
	Snapshot func(channel string, newest uint64) T
	// Write writes one queued item into the connection's buffered writer.
	Write func(*bufio.Writer, Queued[T]) error
	// Heartbeat is queued every HeartbeatEvery by a framing that has one
	// (KeepAlive); a zero HeartbeatEvery means none.
	Heartbeat      T
	HeartbeatEvery time.Duration
}

// quit asks the server to end the session once its reply and whatever
// else the outbox holds are written. Only the line framing reads one; a
// binary client closes its socket instead, and a quit never goes on the
// binary wire.
type quit struct{}

func (*quit) frameType() byte              { return 0 }
func (*quit) appendBody(dst []byte) []byte { return dst }

// BadRequest is a reader error for a request that could not be parsed
// while the stream stays intact: the session answers it and reads on.
type BadRequest string

func (e BadRequest) Error() string { return string(e) }

// Server accepts connections on a listener and serves them against a
// Backend, one session per connection, in one framing.
type Server struct {
	table    *SessionTable
	listener net.Listener
	edge     interface {
		Stats() EdgeStats
		Shutdown()
	}
}

// ServeSessions starts accepting binary-protocol connections from ln,
// registering sessions in the given table — share one table across
// transports so a handle has one live session per node however it
// connects. observe, when set, receives per queued notification the
// time from the update's detection to the frame entering a client's
// outbox (the admin plane's client_enqueue stage).
func ServeSessions(ln net.Listener, backend Backend, table *SessionTable, observe func(time.Duration)) *Server {
	return serve(ln, backend, table, &binaryFraming, encodeNotify, observe)
}

// ServeLine is ServeSessions for the line framing (line.go), the
// prototype's IM line protocol; observe feeds the im_enqueue stage.
func ServeLine(ln net.Listener, backend Backend, table *SessionTable, observe func(time.Duration)) *Server {
	return serve(ln, backend, table, &lineFraming, encodeLine, observe)
}

func serve[T any](ln net.Listener, backend Backend, table *SessionTable, f *Framing[T], encode func(Notification) (T, bool), observe func(time.Duration)) *Server {
	e := NewEdge(DefaultQueueLen, encode, observe)
	go func() {
		var pause time.Duration
		for {
			conn, err := ln.Accept()
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return
				}
				pause = min(max(2*pause, acceptRetryMin), acceptRetryMax)
				time.Sleep(pause)
				continue
			}
			pause = 0
			sess, ok := OpenSession(e, f, backend, table, func() { conn.Close() })
			if !ok {
				conn.Close()
				return
			}
			go sess.Serve(conn)
		}
	}()
	return &Server{table: table, listener: ln, edge: e}
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// NotifyDropped returns how many notifications were discarded: evicted
// from a full outbox, or beyond MaxFrame.
func (s *Server) NotifyDropped() uint64 {
	st := s.edge.Stats()
	return st.DroppedSlow + st.DroppedOversize
}

// Close shuts the listener and drains every connection by the edge's
// Close rule (Edge.Shutdown): each writes what its outbox holds, and
// connections still alive after the drain window are force-closed.
func (s *Server) Close() error {
	err := s.listener.Close()
	s.edge.Shutdown()
	return err
}

// writeFrame is the binary framing of a queued item. Notifies arrive
// pre-encoded as shared frames (oversized ones never reach the queue);
// a control frame beyond MaxFrame is skipped, since it would make the
// client's decoder drop the connection.
func writeFrame(bw *bufio.Writer, q Queued[Frame]) error {
	if sf, ok := q.Msg.(*sharedFrame); ok {
		_, err := bw.Write(sf.buf)
		return err
	}
	b := AppendFrame(bw.AvailableBuffer(), q.Msg)
	if len(b)-4 > MaxFrame {
		return nil
	}
	_, err := bw.Write(b)
	return err
}

// RequestID returns the client-chosen ID a request carries; 0 for nil.
func RequestID(req Frame) uint64 {
	switch r := req.(type) {
	case *Login:
		return r.ReqID
	case *Subscribe:
		return r.ReqID
	case *Unsubscribe:
		return r.ReqID
	case *Ping:
		return r.ReqID
	}
	return 0
}

// replyFrame renders a request's outcome as the Ack or Nak echoing its
// request ID.
func replyFrame(req Frame, token []byte, err error) Frame {
	if err != nil {
		return &Nak{ReqID: RequestID(req), Reason: err.Error()}
	}
	return &Ack{ReqID: RequestID(req), Token: token}
}

// Session is one client session, whatever its framing: its outbox, its
// claim on a handle, and the requests every framing shares. Serve runs
// it on a socket; the SSE handler, whose requests all arrive in one HTTP
// request, calls Login, Subscribe and KeepAlive itself, then End.
type Session[T any] struct {
	f       *Framing[T]
	backend Backend
	table   *SessionTable
	out     *Outbox[T]

	mu     sync.Mutex // guards handle for the keep-alive; only Login writes it
	handle string
	claim  *TableSession
}

// OpenSession opens a session in framing f on edge e (Edge.Open),
// serving backend and logging in to table; false once e shuts down.
func OpenSession[T any](e *Edge[T], f *Framing[T], backend Backend, table *SessionTable, teardown func()) (*Session[T], bool) {
	out, ok := e.Open(teardown)
	if !ok {
		return nil, false
	}
	return &Session[T]{f: f, backend: backend, table: table, out: out}, true
}

// Outbox returns the session's outbox.
func (s *Session[T]) Outbox() *Outbox[T] { return s.out }

// End releases the session's handle and ends its outbox (Outbox.End).
func (s *Session[T]) End() {
	s.release()
	s.out.End()
}

func (s *Session[T]) release() {
	if s.handle != "" {
		s.table.End(s.handle, s.claim)
	}
}

// Serve runs the session on conn until either end closes it: the
// framing's hello, then a loop dispatching requests, beside the writer
// and the keep-alive. Replies and notifies alike go through the outbox,
// so they never interleave.
func (s *Session[T]) Serve(conn net.Conn) {
	stopped := make(chan struct{})
	go func() { // the writer: each batch buffered, then flushed once
		defer close(stopped)
		defer conn.Close()
		bw := bufio.NewWriter(timedWriter{conn})
		s.out.Drain(func(q Queued[T]) error { return s.f.Write(bw, q) }, bw.Flush)
	}()
	alive := s.KeepAlive()
	defer func() {
		s.release()
		s.out.Close(CloseGone)
		<-stopped
		<-alive
		s.out.End()
	}()
	if s.f.Hello != nil && s.f.Hello(conn) != nil {
		return
	}
	reply := func(req Frame, err error) { s.out.Control(s.f.Reply(req, nil, err)) }

	read := s.f.Reader(conn, s.out)
	for {
		req, err := read()
		if bad, ok := err.(BadRequest); ok {
			reply(req, bad)
			continue
		}
		if err != nil {
			return // EOF, network error, or malformed frame: drop the conn
		}
		switch req := req.(type) {
		case *Login:
			if err := s.Login(req); err != nil {
				reply(req, err)
			}
		case *Subscribe:
			if err := s.Subscribe(req); err != nil {
				reply(req, err)
			}
		case *Unsubscribe:
			reply(req, s.unsubscribe(req.URL))
		case *Ping:
			reply(req, nil)
			if s.f.InfoOnPing {
				s.out.Control(s.f.Info(s.backend.Info(), nil))
			}
		case *quit:
			reply(req, nil)
			return
		default:
			return // a server-to-client frame from a client: protocol error
		}
	}
}

var errNotLoggedIn = errors.New("not logged in")

// Login claims req.Handle for the session, then queues the framing's
// Reply and Info, which carry the resume token the client presents next
// time.
func (s *Session[T]) Login(req *Login) error {
	if s.handle != "" {
		return errors.New("already logged in as " + s.handle)
	}
	if req.Handle == "" {
		return errors.New("empty handle")
	}
	token, claim, ok := s.table.Begin(req.Handle, req.ResumeToken, s.f.Transport,
		func() { s.out.Close(CloseDisplaced) }, s.out.Deliver)
	if !ok {
		return errors.New("handle in use (resume token mismatch)")
	}
	s.mu.Lock()
	s.handle, s.claim = req.Handle, claim
	s.mu.Unlock()
	if s.f.Reply != nil {
		s.out.Control(s.f.Reply(req, token, nil))
	}
	if s.f.Info != nil {
		s.out.Control(s.f.Info(s.backend.Info(), token))
	}
	return nil
}

// Subscribe runs one subscribe. Once the backend takes it, the
// framing's Reply and — given a cursor — the catch-up are queued ahead
// of any later live notify on the channel. Only a subscribe with a
// cursor holds live delivery back meanwhile: only its catch-up can
// deliver what was held.
func (s *Session[T]) Subscribe(req *Subscribe) error {
	if err := s.check(req.URL); err != nil {
		return err
	}
	return s.out.subscribe(req.URL, req.Since != nil,
		func() error { return s.backend.Subscribe(s.handle, req.URL) },
		func() {
			if s.f.Reply != nil {
				s.out.controlLocked(s.f.Reply(req, nil, nil))
			}
			if req.Since != nil {
				s.catchUp(req.URL, *req.Since)
			}
		})
}

// catchUp queues what a resuming subscriber missed on url: every
// buffered version above since, or the framing's Snapshot when the ring
// has wrapped past it. Callers hold the outbox's lock.
func (s *Session[T]) catchUp(url string, since uint64) {
	r := s.table.replay.Load()
	entries, complete := r.From(url, since)
	if !complete {
		newest := r.Newest(url)
		s.out.skipLocked(url, newest, s.f.Snapshot(url, newest))
		return
	}
	for _, e := range entries {
		s.out.replayLocked(Notification{Channel: url, Version: e.Version, Diff: e.Diff, At: e.At, Shared: &Shared{}})
	}
}

// unsubscribe runs one unsubscribe, then drops the channel from the
// session's channel set.
func (s *Session[T]) unsubscribe(url string) error {
	if err := s.check(url); err != nil {
		return err
	}
	if err := s.backend.Unsubscribe(s.handle, url); err != nil {
		return err
	}
	s.out.Forget(url)
	return nil
}

// check vets a request naming a channel.
func (s *Session[T]) check(url string) error {
	switch {
	case s.handle == "":
		return errNotLoggedIn
	case url == "":
		return errors.New("empty url")
	}
	return nil
}

// KeepAlive runs the session's keep-alive until the outbox closes:
// every LeaseCadence it refreshes the entry-node leases of the session's
// channels at their owners, which keeps every subscriber in the
// lease-failover machinery whatever its framing, and every
// HeartbeatEvery it queues the framing's Heartbeat, if it has one. The
// returned channel is closed when it stops.
func (s *Session[T]) KeepAlive() <-chan struct{} {
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		lease := time.NewTicker(s.backend.LeaseCadence())
		defer lease.Stop()
		var beat <-chan time.Time
		if s.f.HeartbeatEvery > 0 {
			hb := time.NewTicker(s.f.HeartbeatEvery)
			defer hb.Stop()
			beat = hb.C
		}
		for {
			select {
			case <-s.out.Done():
				return
			case <-beat:
				s.out.Control(s.f.Heartbeat)
			case <-lease.C:
				s.mu.Lock()
				handle := s.handle
				s.mu.Unlock()
				if urls := s.out.Channels(); handle != "" && len(urls) > 0 {
					s.backend.RefreshLeases(handle, urls)
				}
			}
		}
	}()
	return stopped
}
