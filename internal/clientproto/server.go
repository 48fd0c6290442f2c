package clientproto

import (
	"bufio"
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

// TransportBinary is this server's transport name in the session table;
// the web gateway registers its sessions as "ws" and "sse".
const TransportBinary = "binary"

// Server accepts client-protocol connections on a listener and serves
// them against a Backend: binary framing over one outbox per
// connection.
type Server struct {
	backend  Backend
	table    *SessionTable
	listener net.Listener
	edge     *Edge[Frame]
}

// Serve starts accepting connections from ln with a private session
// table. Close stops the server and every live connection.
func Serve(ln net.Listener, backend Backend) *Server {
	return ServeSessions(ln, backend, NewSessionTable(), nil)
}

// ServeSessions starts accepting connections from ln, registering
// sessions in the given table — share one table across transports so a
// handle has one live session per node however it connects. observe,
// when set, receives per queued notification the time from the update's
// detection to the frame entering a client's outbox (the admin plane's
// client_enqueue stage).
func ServeSessions(ln net.Listener, backend Backend, table *SessionTable, observe func(time.Duration)) *Server {
	s := &Server{
		backend:  backend,
		table:    table,
		listener: ln,
		edge:     NewEdge(DefaultQueueLen, encodeNotify, observe),
	}
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// NotifyDropped returns how many notification frames were discarded:
// evicted from a full outbox, or beyond MaxFrame.
func (s *Server) NotifyDropped() uint64 {
	st := s.edge.Stats()
	return st.DroppedSlow + st.DroppedOversize
}

// Sessions returns the number of live logged-in binary-protocol
// sessions (web-transport sessions in a shared table are not counted).
func (s *Server) Sessions() int {
	return s.table.Count(TransportBinary)
}

// Close shuts the listener and drains every connection by the edge's
// Close rule (Edge.Shutdown): each writes what its outbox holds, and
// connections still alive after the drain window are force-closed.
func (s *Server) Close() error {
	err := s.listener.Close()
	s.edge.Shutdown()
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		o, ok := s.edge.Open(func() { conn.Close() })
		if !ok {
			conn.Close()
			return
		}
		go s.serveConn(conn, o)
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

// serveConn owns one connection: the hello check, then a read loop
// dispatching requests. Every frame to the client goes through the
// connection's outbox, so notification delivery (from gateway
// goroutines) cannot interleave frames with request replies.
func (s *Server) serveConn(conn net.Conn, o *Outbox[Frame]) {
	stopped := o.Pump(conn, writeFrame)
	defer func() {
		o.Close(CloseGone)
		<-stopped
		o.End()
	}()
	if err := Negotiate(conn); err != nil {
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

	br := bufio.NewReader(conn)
	for {
		f, err := ReadFrame(br)
		if err != nil {
			return // EOF, network error, or malformed frame: drop the conn
		}
		switch req := f.(type) {
		case *Login:
			if handle != "" {
				o.Control(&Nak{ReqID: req.ReqID, Reason: "already logged in as " + handle})
				continue
			}
			if req.Handle == "" {
				o.Control(&Nak{ReqID: req.ReqID, Reason: "empty handle"})
				continue
			}
			// The table runs the attach under its lock, making claim and
			// attach one atomic step (the gateway's lock is leaf-level,
			// and the displaced session's detach is identity-guarded).
			token, ts, det, ok := s.table.Begin(req.Handle, req.ResumeToken, TransportBinary,
				func() { o.Close(CloseDisplaced) },
				func() func() { return s.backend.Attach(req.Handle, o.Deliver) })
			if !ok {
				o.Control(&Nak{ReqID: req.ReqID, Reason: "handle in use (resume token mismatch)"})
				continue
			}
			handle, sess, detach = req.Handle, ts, det
			o.Control(&Ack{ReqID: req.ReqID, Token: token})
			o.Control(s.info())
		case *Subscribe:
			o.Control(s.subReply(req.ReqID, handle, req.URL, false))
		case *Unsubscribe:
			o.Control(s.subReply(req.ReqID, handle, req.URL, true))
		case *LeaseRefresh:
			if handle == "" {
				o.Control(&Nak{ReqID: req.ReqID, Reason: "not logged in"})
				continue
			}
			if err := s.backend.RefreshLeases(handle, req.URLs); err != nil {
				o.Control(&Nak{ReqID: req.ReqID, Reason: err.Error()})
				continue
			}
			o.Control(&Ack{ReqID: req.ReqID})
		case *Ping:
			o.Control(&Ack{ReqID: req.ReqID})
			o.Control(s.info())
		default:
			return // a server-to-client frame from a client: protocol error
		}
	}
}

// subReply runs one subscribe/unsubscribe request and returns its ack or
// nak.
func (s *Server) subReply(reqID uint64, handle, url string, remove bool) Frame {
	if handle == "" {
		return &Nak{ReqID: reqID, Reason: "not logged in"}
	}
	if url == "" {
		return &Nak{ReqID: reqID, Reason: "empty url"}
	}
	var err error
	if remove {
		err = s.backend.Unsubscribe(handle, url)
	} else {
		err = s.backend.Subscribe(handle, url)
	}
	if err != nil {
		return &Nak{ReqID: reqID, Reason: err.Error()}
	}
	return &Ack{ReqID: reqID}
}

// info snapshots the backend's ServerInfo as a frame.
func (s *Server) info() *ServerInfo {
	si := s.backend.Info()
	return &si
}
