package clientproto

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/im"
)

// Server tunables.
const (
	// outQueueLen is the per-connection outbound frame queue depth.
	// Notifications to a client that cannot drain them are dropped
	// (and counted); control replies wait for space.
	outQueueLen = 256
	// writeTimeout bounds one frame write to a client.
	writeTimeout = 10 * time.Second
	// closeDrainTimeout bounds how long Close waits for per-connection
	// writer goroutines to flush their queued frames before force-closing
	// the sockets; a graceful node shutdown should not die mid-frame, but
	// neither should one wedged client hold the WAL flush hostage.
	closeDrainTimeout = 3 * time.Second
	// tokenLen is the resume-token size in bytes.
	tokenLen = 16
)

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
// the batch delivery path encodes the notification once (the frame body
// excludes the client handle, so the bytes are identical for every
// recipient) and enqueues the same pointer to each subscriber's writer,
// which writes buf directly instead of re-encoding. buf is the full wire
// form — length prefix, type byte, body — and is never mutated after
// encode. oversize marks a frame beyond MaxFrame, detected once.
type sharedFrame struct {
	buf      []byte
	oversize bool
}

// queued is one entry of a connection's outbound queue. A notification
// carries its client_enqueue latency, measured as it entered the queue;
// the writer records it before the frame reaches the socket, so a
// client that holds a notification can rely on it being counted.
type queued struct {
	f        Frame
	latency  time.Duration
	observed bool // latency is set: the notification carried a detection stamp
}

// sharedKeyFrame keys this package's slot in a batch's im.Shared cell;
// other delivery layers (the web gateway's JSON encoding) hold their own
// slots in the same cell.
var sharedKeyFrame = new(byte)

func (f *sharedFrame) frameType() byte { return TypeNotify }
func (f *sharedFrame) appendBody(dst []byte) []byte {
	return append(dst, f.buf[5:]...) // skip length prefix + type byte
}

// TransportBinary is this server's transport name in the session table;
// the web gateway registers its sessions as "ws" and "sse".
const TransportBinary = "binary"

// Server accepts client-protocol connections on a listener and serves
// them against a Backend.
type Server struct {
	backend Backend
	table   *SessionTable

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	// serving counts live serveConn goroutines; Close waits for them so
	// per-connection writers drain their queued frames (and the caller
	// can flush the WAL) instead of dying mid-frame.
	serving sync.WaitGroup

	notifyDropped atomic.Uint64

	// notifyLatency, when set, observes the time from an update's
	// detection timestamp to the notification frame entering a client's
	// outbound queue — the last server-side stage of the hot path.
	notifyLatency atomic.Pointer[func(time.Duration)]
}

// Serve starts accepting connections from ln with a private session
// table. Close stops the server and every live connection.
func Serve(ln net.Listener, backend Backend) *Server {
	return ServeSessions(ln, backend, NewSessionTable())
}

// ServeSessions starts accepting connections from ln, registering
// sessions in the given table — share one table across transports so a
// handle has one live session per node however it connects.
func ServeSessions(ln net.Listener, backend Backend, table *SessionTable) *Server {
	s := &Server{
		backend:  backend,
		table:    table,
		listener: ln,
		conns:    make(map[net.Conn]struct{}),
	}
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// NotifyDropped returns how many notification frames were discarded
// because a client's outbound queue was full.
func (s *Server) NotifyDropped() uint64 { return s.notifyDropped.Load() }

// Sessions returns the number of live logged-in binary-protocol
// sessions (web-transport sessions in a shared table are not counted).
func (s *Server) Sessions() int {
	return s.table.Count(TransportBinary)
}

// SetNotifyLatencyObserver installs a callback observing, per delivered
// notification, the elapsed time between the update's detection
// timestamp and the frame entering the client's outbound queue. The
// admin plane wires it into the client_enqueue stage histogram.
func (s *Server) SetNotifyLatencyObserver(obs func(time.Duration)) {
	s.notifyLatency.Store(&obs)
}

// observeEnqueue records one enqueue-stage latency observation.
func (s *Server) observeEnqueue(d time.Duration) {
	p := s.notifyLatency.Load()
	if p == nil || *p == nil {
		return
	}
	(*p)(d)
}

// Close shuts the listener, asks every live connection to finish, and
// waits (bounded by closeDrainTimeout) for the per-connection writer
// goroutines to flush what they hold. Readers are unblocked with an
// expired read deadline rather than a hard close, so a frame mid-write
// completes instead of tearing; connections still alive after the drain
// window are force-closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		c.SetReadDeadline(time.Now()) // reader unblocks; writer drains and flushes
	}
	drained := make(chan struct{})
	go func() {
		s.serving.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(closeDrainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-drained
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.serving.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.serving.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) forget(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn owns one connection: the hello check, then a read loop
// dispatching requests, with all writes funneled through one writer
// goroutine so notification delivery (from gateway goroutines) cannot
// interleave frames with request replies.
func (s *Server) serveConn(conn net.Conn) {
	defer s.forget(conn)
	if err := Negotiate(conn); err != nil {
		return
	}

	// The out channel is never closed (late notification deliverers may
	// race past detach); the writer exits on readerDone and, after a write
	// error, keeps draining so no sender can block on a dead connection.
	out := make(chan queued, outQueueLen)
	readerDone := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(conn)
		var buf []byte // reused encode buffer; frames are copied into bw
		dead := false
		// writeOne encodes and writes one frame (no flush), skipping
		// oversized ones: a frame beyond MaxFrame would make the client's
		// decoder drop the connection. Notifications arrive pre-encoded
		// as shared frames — their bytes were built once for the whole
		// batch, and oversized ones were dropped and counted before
		// reaching the queue — so only control frames encode here.
		writeOne := func(q queued) {
			if q.observed {
				s.observeEnqueue(q.latency)
			}
			if dead {
				return
			}
			f, frame := q.f, buf
			if sf, ok := f.(*sharedFrame); ok {
				frame = sf.buf
			} else {
				buf = AppendFrame(buf[:0], f)
				if len(buf)-4 > MaxFrame {
					return
				}
				frame = buf
			}
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			// Flush when the queue runs dry; consecutive frames coalesce
			// into one syscall.
			_, err := bw.Write(frame)
			if err == nil && len(out) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				conn.Close() // unblocks the reader; it cleans up
				dead = true
			}
		}
		for {
			select {
			case q := <-out:
				writeOne(q)
			case <-readerDone:
				// Graceful exit: drain whatever the queue still holds —
				// a shutdown must not cut a notification stream mid-frame
				// — then flush once.
				for !dead {
					select {
					case q := <-out:
						writeOne(q)
					default:
						bw.Flush()
						return
					}
				}
				return
			}
		}
	}()
	defer func() { <-writerDone }()
	defer close(readerDone)

	// reply enqueues a control frame, waiting for space: acks and naks
	// are request-paced and must not be lost to a burst of notifications.
	// The writer drains even after a write error, so this cannot wedge.
	reply := func(f Frame) { out <- queued{f: f} }

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
				reply(&Nak{ReqID: req.ReqID, Reason: "already logged in as " + handle})
				continue
			}
			if req.Handle == "" {
				reply(&Nak{ReqID: req.ReqID, Reason: "empty handle"})
				continue
			}
			deliver := func(n im.Notification) {
				// The first recipient's deliverer encodes the frame into
				// the batch's Shared cell; every later recipient reuses
				// the bytes. Deliverers for one batch run sequentially on
				// the gateway's goroutine, so the cell needs no locking.
				sf, _ := n.Shared.Load(sharedKeyFrame).(*sharedFrame)
				if sf == nil {
					b := AppendFrame(nil, &Notify{Channel: n.Channel, Version: n.Version, Diff: n.Diff, At: n.At})
					sf = &sharedFrame{buf: b, oversize: len(b)-4 > MaxFrame}
					n.Shared.Store(sharedKeyFrame, sf)
				}
				if sf.oversize {
					s.notifyDropped.Add(1)
					return
				}
				q := queued{f: sf, observed: !n.At.IsZero()}
				if q.observed {
					q.latency = time.Since(n.At)
				}
				select {
				case out <- q:
				default:
					s.notifyDropped.Add(1)
				}
			}
			token, ts, det, ok := s.beginSession(req.Handle, req.ResumeToken, conn, deliver)
			if !ok {
				reply(&Nak{ReqID: req.ReqID, Reason: "handle in use (resume token mismatch)"})
				continue
			}
			handle, sess, detach = req.Handle, ts, det
			reply(&Ack{ReqID: req.ReqID, Token: token})
			reply(s.info())
		case *Subscribe:
			s.subReply(req.ReqID, handle, req.URL, false, reply)
		case *Unsubscribe:
			s.subReply(req.ReqID, handle, req.URL, true, reply)
		case *LeaseRefresh:
			if handle == "" {
				reply(&Nak{ReqID: req.ReqID, Reason: "not logged in"})
				continue
			}
			if err := s.backend.RefreshLeases(handle, req.URLs); err != nil {
				reply(&Nak{ReqID: req.ReqID, Reason: err.Error()})
				continue
			}
			reply(&Ack{ReqID: req.ReqID})
		case *Ping:
			reply(&Ack{ReqID: req.ReqID})
			reply(s.info())
		default:
			return // a server-to-client frame from a client: protocol error
		}
	}
}

// subReply runs one subscribe/unsubscribe request and acks or naks it.
func (s *Server) subReply(reqID uint64, handle, url string, remove bool, reply func(Frame)) {
	if handle == "" {
		reply(&Nak{ReqID: reqID, Reason: "not logged in"})
		return
	}
	if url == "" {
		reply(&Nak{ReqID: reqID, Reason: "empty url"})
		return
	}
	var err error
	if remove {
		err = s.backend.Unsubscribe(handle, url)
	} else {
		err = s.backend.Subscribe(handle, url)
	}
	if err != nil {
		reply(&Nak{ReqID: reqID, Reason: err.Error()})
		return
	}
	reply(&Ack{ReqID: reqID})
}

// info snapshots the backend's ServerInfo as a frame.
func (s *Server) info() *ServerInfo {
	si := s.backend.Info()
	return &si
}

// beginSession claims handle for conn in the shared session table and
// attaches its notification deliverer in one atomic step (the table runs
// the attach under its lock: the gateway's lock is leaf-level, it never
// calls back into the server or the table, and the displaced session's
// own detach is identity-guarded, so claim+attach form one unit). The
// displacement/adoption token rules live in SessionTable.Begin.
func (s *Server) beginSession(handle string, token []byte, conn net.Conn, deliver func(im.Notification)) ([]byte, *TableSession, func(), bool) {
	return s.table.Begin(handle, token, TransportBinary,
		func() { conn.Close() }, // stale connection; its reader cleans up
		func() func() { return s.backend.Attach(handle, deliver) })
}
