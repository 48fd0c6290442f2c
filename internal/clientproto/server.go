package clientproto

import (
	"bufio"
	"errors"
	"io"
	"net"
	"time"

	"corona/internal/im"
)

// tokenLen is the resume-token size in bytes.
const tokenLen = 16

// Backend is the node surface the protocol server drives: subscription
// calls, structured-notification attachment, and the node's ServerInfo
// advertisement. corona.LiveNode implements it.
type Backend interface {
	// Subscribe registers a client's interest in a channel URL, with
	// this node as the client's entry point.
	Subscribe(client, url string) error
	// Unsubscribe removes it.
	Unsubscribe(client, url string) error
	// RefreshLeases heartbeats entry-node liveness for an attached
	// client's channels: each channel owner refreshes the subscriber's
	// lease and re-points its entry record at this node.
	RefreshLeases(client string, urls []string) error
	// Attach registers a structured-notification deliverer for client,
	// displacing any previous one; the returned detach removes it.
	Attach(client string, deliver func(im.Notification)) (detach func())
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

// sharedKeyFrame keys this package's slot in a batch's im.Shared cell;
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
// on the gateway's goroutine, so the cell needs no locking.
func encodeNotify(n im.Notification) (Frame, bool) {
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
var binaryFraming = framing[Frame]{
	transport: TransportBinary,
	hello:     Negotiate,
	reader: func(r io.Reader) func() (Frame, error) {
		br := bufio.NewReader(r)
		return func() (Frame, error) { return ReadFrame(br) }
	},
	reply:  replyFrame,
	info:   func(si ServerInfo) Frame { return &si },
	write:  writeFrame,
	encode: encodeNotify,
}

// framing is one socket encoding of the client session model. The
// Server runs the session — accept loop, outbox, session-table claim and
// gateway attach, request dispatch — and calls its framing only to read
// requests off the socket and to render what goes back.
type framing[T any] struct {
	// transport names the framing's sessions in the session table.
	transport string
	// hello runs the connection's opening exchange; nil when there is
	// none.
	hello func(io.ReadWriter) error
	// reader returns the connection's request reader. Each call yields
	// the next request: *Login, *Subscribe, *Unsubscribe, *LeaseRefresh,
	// *Ping or *quit. A badRequest error is answered and the session
	// reads on; any other error ends the session.
	reader func(io.Reader) func() (Frame, error)
	// reply renders a request's outcome: err is nil on success, token is
	// set only on a login's success. req is nil for a badRequest.
	reply func(req Frame, token []byte, err error) T
	// info renders the ServerInfo pushed after a login and after each
	// ping; nil when the framing carries none.
	info func(ServerInfo) T
	// write writes one queued item into the connection's buffered writer.
	write func(*bufio.Writer, Queued[T]) error
	// encode is the edge's notify encoder (NewEdge).
	encode func(im.Notification) (T, bool)
}

// quit asks the server to end the session once its reply and whatever
// else the outbox holds are written. Only the line framing reads one; a
// binary client closes its socket instead, and a quit never goes on the
// binary wire.
type quit struct{}

func (*quit) frameType() byte              { return 0 }
func (*quit) appendBody(dst []byte) []byte { return dst }

// badRequest is a reader error for a request that could not be parsed
// while the stream stays intact: the session answers it and reads on.
type badRequest string

func (e badRequest) Error() string { return string(e) }

// Server accepts connections on a listener and serves them against a
// Backend, one outbox per connection, in one framing.
type Server struct {
	backend   Backend
	table     *SessionTable
	listener  net.Listener
	transport string
	edge      interface {
		Stats() EdgeStats
		Shutdown()
	}
}

// Serve starts accepting binary-protocol connections from ln with a
// private session table. Close stops the server and every live
// connection.
func Serve(ln net.Listener, backend Backend) *Server {
	return ServeSessions(ln, backend, NewSessionTable(), nil)
}

// ServeSessions starts accepting binary-protocol connections from ln,
// registering sessions in the given table — share one table across
// transports so a handle has one live session per node however it
// connects. observe, when set, receives per queued notification the
// time from the update's detection to the frame entering a client's
// outbox (the admin plane's client_enqueue stage).
func ServeSessions(ln net.Listener, backend Backend, table *SessionTable, observe func(time.Duration)) *Server {
	return serve(ln, backend, table, &binaryFraming, observe)
}

// ServeLine is ServeSessions for the line framing (line.go), the
// prototype's IM line protocol; observe feeds the im_enqueue stage.
func ServeLine(ln net.Listener, backend Backend, table *SessionTable, observe func(time.Duration)) *Server {
	return serve(ln, backend, table, &lineFraming, observe)
}

func serve[T any](ln net.Listener, backend Backend, table *SessionTable, f *framing[T], observe func(time.Duration)) *Server {
	e := NewEdge(DefaultQueueLen, f.encode, observe)
	s := &Server{backend: backend, table: table, listener: ln, transport: f.transport, edge: e}
	go acceptLoop(s, f, e)
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// NotifyDropped returns how many notifications were discarded: evicted
// from a full outbox, or beyond MaxFrame.
func (s *Server) NotifyDropped() uint64 {
	st := s.edge.Stats()
	return st.DroppedSlow + st.DroppedOversize
}

// Sessions returns the number of live logged-in sessions of this
// server's framing (other transports' sessions in a shared table are not
// counted).
func (s *Server) Sessions() int {
	return s.table.Count(s.transport)
}

// Close shuts the listener and drains every connection by the edge's
// Close rule (Edge.Shutdown): each writes what its outbox holds, and
// connections still alive after the drain window are force-closed.
func (s *Server) Close() error {
	err := s.listener.Close()
	s.edge.Shutdown()
	return err
}

func acceptLoop[T any](s *Server, f *framing[T], e *Edge[T]) {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		o, ok := e.Open(func() { conn.Close() })
		if !ok {
			conn.Close()
			return
		}
		go serveConn(s, f, conn, o)
	}
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

// replyFrame renders a request's outcome as the Ack or Nak echoing its
// request ID.
func replyFrame(req Frame, token []byte, err error) Frame {
	var id uint64
	switch r := req.(type) {
	case *Login:
		id = r.ReqID
	case *Subscribe:
		id = r.ReqID
	case *Unsubscribe:
		id = r.ReqID
	case *LeaseRefresh:
		id = r.ReqID
	case *Ping:
		id = r.ReqID
	}
	if err != nil {
		return &Nak{ReqID: id, Reason: err.Error()}
	}
	return &Ack{ReqID: id, Token: token}
}

// serveConn owns one connection: the framing's hello, then a read loop
// dispatching requests. Everything to the client goes through the
// connection's outbox, so notification delivery (from gateway
// goroutines) cannot interleave with request replies.
func serveConn[T any](s *Server, f *framing[T], conn net.Conn, o *Outbox[T]) {
	stopped := o.Pump(conn, f.write)
	defer func() {
		o.Close(CloseGone)
		<-stopped
		o.End()
	}()
	if f.hello != nil && f.hello(conn) != nil {
		return
	}

	var handle string
	var sess *TableSession
	var detach func()
	defer func() {
		if detach != nil {
			detach()
		}
		if handle != "" {
			s.table.End(handle, sess)
		}
	}()
	reply := func(req Frame, err error) { o.Control(f.reply(req, nil, err)) }
	info := func() {
		if f.info != nil {
			o.Control(f.info(s.backend.Info()))
		}
	}

	read := f.reader(conn)
	for {
		req, err := read()
		if bad, ok := err.(badRequest); ok {
			reply(nil, bad)
			continue
		}
		if err != nil {
			return // EOF, network error, or malformed frame: drop the conn
		}
		switch req := req.(type) {
		case *Login:
			if handle != "" {
				reply(req, errors.New("already logged in as "+handle))
				continue
			}
			if req.Handle == "" {
				reply(req, errors.New("empty handle"))
				continue
			}
			// The table runs the attach under its lock, making claim and
			// attach one atomic step (the gateway's lock is leaf-level,
			// and the displaced session's detach is identity-guarded).
			token, ts, det, ok := s.table.Begin(req.Handle, req.ResumeToken, f.transport,
				func() { o.Close(CloseDisplaced) },
				func() func() { return s.backend.Attach(req.Handle, o.Deliver) })
			if !ok {
				reply(req, errors.New("handle in use (resume token mismatch)"))
				continue
			}
			handle, sess, detach = req.Handle, ts, det
			o.Control(f.reply(req, token, nil))
			info()
		case *Subscribe:
			reply(req, s.subscribe(handle, req.URL, false))
		case *Unsubscribe:
			reply(req, s.subscribe(handle, req.URL, true))
		case *LeaseRefresh:
			if handle == "" {
				reply(req, errNotLoggedIn)
				continue
			}
			reply(req, s.backend.RefreshLeases(handle, req.URLs))
		case *Ping:
			reply(req, nil)
			info()
		case *quit:
			reply(req, nil)
			return
		default:
			return // a server-to-client frame from a client: protocol error
		}
	}
}

var errNotLoggedIn = errors.New("not logged in")

// subscribe runs one subscribe or unsubscribe request.
func (s *Server) subscribe(handle, url string, remove bool) error {
	switch {
	case handle == "":
		return errNotLoggedIn
	case url == "":
		return errors.New("empty url")
	case remove:
		return s.backend.Unsubscribe(handle, url)
	}
	return s.backend.Subscribe(handle, url)
}
