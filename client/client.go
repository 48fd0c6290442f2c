// Package client is the Go SDK for subscribing to a live Corona cloud.
//
// A Conn speaks the binary client protocol (internal/clientproto) to one
// node of the cloud at a time, chosen from
// the address list given to Dial. Subscribe and Unsubscribe block until
// the serving node acknowledges the request; update notifications stream
// through the Notifications channel.
//
// The connection survives node failure: when the serving node dies, the
// Conn dials the next address in the list, resumes its session with the
// token minted at first login, and replays its subscription set, one
// Subscribe per channel — which re-points each channel owner's entry-node
// record at the new node — so the application keeps receiving
// notifications without re-calling Subscribe. Failover is invisible apart
// from the gap it takes to reconnect. The client sends no lease
// heartbeats: the serving node keeps its sessions' entry-node leases
// alive at the owners, which lets owners detect and route around dead
// entry nodes server-side.
//
//	conn, err := client.Dial(ctx, []string{"10.0.0.1:9201", "10.0.0.2:9201"},
//		client.Options{Handle: "alice"})
//	if err != nil { ... }
//	defer conn.Close()
//	if err := conn.Subscribe(ctx, feedURL); err != nil { ... }
//	for n := range conn.Notifications() {
//		fmt.Println(n.Channel, n.Version)
//	}
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"corona"
	"corona/internal/clientproto"
)

// dialTimeout bounds each connection attempt, and each frame write.
const dialTimeout = 3 * time.Second

// Defaults for the Options below.
const (
	defaultRetryWait    = 500 * time.Millisecond
	defaultPingInterval = 30 * time.Second
	defaultNotifyBuffer = 64
)

// Options configures a Conn.
type Options struct {
	// Handle is the subscriber identity (required). Subscriptions are
	// keyed by handle in the cloud, so a client reconnecting anywhere
	// with the same handle is the same subscriber.
	Handle string
	// RetryWait is the pause between full sweeps of the address list
	// while reconnecting (default 500ms).
	RetryWait time.Duration
	// PingInterval is the liveness-probe period; each ping is acked and
	// refreshes ServerInfo. Zero means the 30s default; negative
	// disables pinging (and with it the read-idle timeout). Leases do
	// not depend on it: the serving node refreshes them.
	PingInterval time.Duration
	// NotifyBuffer is the Notifications channel capacity (default 64).
	// When the application falls behind, the oldest buffered
	// notification is dropped — counted in NotificationsDropped — so the
	// stream stays current.
	NotifyBuffer int
}

func (o Options) withDefaults() Options {
	if o.RetryWait <= 0 {
		o.RetryWait = defaultRetryWait
	}
	if o.PingInterval == 0 {
		o.PingInterval = defaultPingInterval
	}
	if o.NotifyBuffer <= 0 {
		o.NotifyBuffer = defaultNotifyBuffer
	}
	return o
}

// ServerInfo is the serving node's most recent advertisement: its overlay
// endpoint and its leaf-set siblings.
type ServerInfo struct {
	// Node is the serving node's advertised overlay endpoint.
	Node string
	// Peers are overlay endpoints of the node's ring neighbors
	// (operator-visible topology, not dialable client ports).
	Peers []string
}

// ErrClosed is returned by operations on a Conn after Close.
var ErrClosed = errors.New("client: connection closed")

// errNotConnected is the internal between-nodes state; callers of
// Subscribe wait out reconnection instead of seeing it.
var errNotConnected = errors.New("client: not connected")

// result is one request's resolution: nak reason, or a transport error.
type result struct {
	nak string
	err error
}

// Conn is one logical client connection to the cloud. All methods are
// safe for concurrent use.
type Conn struct {
	addrs []string
	opts  Options

	notifyCh chan corona.Notification
	dropped  atomic.Uint64
	reqID    atomic.Uint64

	runDone chan struct{}
	closeCh chan struct{}
	// dialCtx spans the Conn's lifetime; Close cancels it so a reconnect
	// sweep mid-dial aborts instead of running out its timeouts.
	dialCtx    context.Context
	dialCancel context.CancelFunc

	mu        sync.Mutex
	cur       net.Conn
	curAddr   string
	connReady chan struct{} // closed while connected; fresh while not
	token     []byte
	subs      map[string]struct{}
	pending   map[uint64]chan result
	lastInfo  ServerInfo
	haveInfo  bool
	closed    bool

	// wmu serializes frame writes to the current connection.
	wmu sync.Mutex
}

// Dial connects to the first reachable node in addrs, logs in, and
// returns a live Conn. The context bounds the initial connection only;
// after that the Conn reconnects on its own until Close. Each address is
// a node's client-protocol port (corona-node -client).
func Dial(ctx context.Context, addrs []string, opts Options) (*Conn, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: at least one node address required")
	}
	if opts.Handle == "" {
		return nil, errors.New("client: Options.Handle required")
	}
	opts = opts.withDefaults()
	c := &Conn{
		addrs:     append([]string(nil), addrs...),
		opts:      opts,
		notifyCh:  make(chan corona.Notification, opts.NotifyBuffer),
		runDone:   make(chan struct{}),
		closeCh:   make(chan struct{}),
		connReady: make(chan struct{}),
		subs:      make(map[string]struct{}),
		pending:   make(map[uint64]chan result),
	}
	c.dialCtx, c.dialCancel = context.WithCancel(context.Background())
	var lastErr error
	idx := -1
	for i, a := range addrs {
		conn, err := c.connect(ctx, a)
		if err == nil {
			idx = i
			go c.run(conn, idx)
			return c, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("client: no node reachable among %v: %w", addrs, lastErr)
}

// Notifications returns the update stream. The channel closes when the
// Conn is closed.
func (c *Conn) Notifications() <-chan corona.Notification { return c.notifyCh }

// NotificationsDropped returns how many notifications were discarded
// because the application did not drain Notifications fast enough.
func (c *Conn) NotificationsDropped() uint64 { return c.dropped.Load() }

// Handle returns the subscriber identity.
func (c *Conn) Handle() string { return c.opts.Handle }

// Addr returns the address of the currently serving node, empty while
// reconnecting.
func (c *Conn) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curAddr
}

// ServerInfo returns the serving node's latest advertisement and whether
// one has been received.
func (c *Conn) ServerInfo() (ServerInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastInfo, c.haveInfo
}

// Subscriptions returns the Conn's desired subscription set — what is
// replayed to a node after failover.
func (c *Conn) Subscriptions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.subs))
	for u := range c.subs {
		out = append(out, u)
	}
	return out
}

// Subscribe registers interest in a channel URL and blocks until the
// serving node acks it (or ctx ends). The URL joins the Conn's desired
// set immediately, so a failover during the call still replays it; the
// call itself retries across reconnects until it observes an ack.
func (c *Conn) Subscribe(ctx context.Context, url string) error {
	return c.subscribe(ctx, url, false)
}

// Unsubscribe removes a subscription, blocking until acked.
func (c *Conn) Unsubscribe(ctx context.Context, url string) error {
	return c.subscribe(ctx, url, true)
}

func (c *Conn) subscribe(ctx context.Context, url string, remove bool) error {
	if url == "" {
		return errors.New("client: empty channel URL")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if remove {
		delete(c.subs, url)
	} else {
		c.subs[url] = struct{}{}
	}
	c.mu.Unlock()
	for {
		if err := c.awaitConnected(ctx); err != nil {
			return err
		}
		id, ch := c.register()
		var f clientproto.Frame
		if remove {
			f = &clientproto.Unsubscribe{ReqID: id, URL: url}
		} else {
			f = &clientproto.Subscribe{ReqID: id, URL: url}
		}
		if err := c.send(f); err != nil {
			c.unregister(id)
			if errors.Is(err, ErrClosed) {
				return err
			}
			continue // connection died; wait out the reconnect and retry
		}
		select {
		case r := <-ch:
			switch {
			case r.err == nil && r.nak == "":
				return nil
			case r.nak != "":
				if !remove {
					c.mu.Lock()
					delete(c.subs, url) // refused: do not replay it forever
					c.mu.Unlock()
				}
				return fmt.Errorf("client: %s refused: %s", url, r.nak)
			case errors.Is(r.err, ErrClosed):
				return r.err
			default:
				continue // disconnected mid-request; retry on the next node
			}
		case <-ctx.Done():
			c.unregister(id)
			return ctx.Err()
		case <-c.closeCh:
			c.unregister(id)
			return ErrClosed
		}
	}
}

// Close tears the connection down. Pending calls return ErrClosed and the
// Notifications channel closes.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closeCh)
	c.dialCancel()
	cur := c.cur
	c.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	<-c.runDone
	close(c.notifyCh)
	return nil
}

// awaitConnected blocks until the Conn is serving, ctx ends, or Close.
func (c *Conn) awaitConnected(ctx context.Context) error {
	c.mu.Lock()
	ready := c.connReady
	c.mu.Unlock()
	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.closeCh:
		return ErrClosed
	}
}

// register creates a pending request slot.
func (c *Conn) register() (uint64, chan result) {
	id := c.reqID.Add(1)
	ch := make(chan result, 1)
	c.mu.Lock()
	c.pending[id] = ch
	c.mu.Unlock()
	return id, ch
}

func (c *Conn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// resolve completes a pending request, if still registered.
func (c *Conn) resolve(id uint64, r result) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		ch <- r
	}
}

// send writes one frame to the current connection.
func (c *Conn) send(f clientproto.Frame) error {
	c.mu.Lock()
	conn := c.cur
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if conn == nil {
		return errNotConnected
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(dialTimeout))
	if err := clientproto.WriteFrame(conn, f); err != nil {
		conn.Close() // the read loop notices and reconnects
		return err
	}
	return nil
}

// connect dials one node, checks the protocol hello, logs in (resuming
// with the held token), re-asserts the subscription set, and installs the
// connection as current.
func (c *Conn) connect(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := clientproto.Hello(conn); err != nil {
		conn.Close()
		return nil, err
	}
	c.mu.Lock()
	token := c.token
	c.mu.Unlock()
	loginID := c.reqID.Add(1)
	login := &clientproto.Login{ReqID: loginID, Handle: c.opts.Handle, ResumeToken: token}
	if err := clientproto.WriteFrame(conn, login); err != nil {
		conn.Close()
		return nil, err
	}
	// The login reply is read synchronously; nothing else arrives first.
	f, err := clientproto.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch r := f.(type) {
	case *clientproto.Ack:
		if r.ReqID != loginID {
			conn.Close()
			return nil, fmt.Errorf("client: login ack for wrong request %d", r.ReqID)
		}
		if len(r.Token) > 0 {
			token = r.Token
		}
	case *clientproto.Nak:
		conn.Close()
		return nil, fmt.Errorf("client: login refused by %s: %s", addr, r.Reason)
	default:
		conn.Close()
		return nil, fmt.Errorf("client: unexpected login reply %T", f)
	}
	conn.SetDeadline(time.Time{})

	// Install, replay the desired subscription set, and only then mark
	// the Conn connected. Each replayed Subscribe re-points its channel
	// owner's entry record at this node. Keeping connReady unreadied until
	// the frames are written means a concurrent Subscribe or Unsubscribe
	// call's frame is ordered AFTER the replay, so the server's final
	// state matches the desired set.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	c.cur = conn
	c.curAddr = addr
	c.token = token
	urls := make([]string, 0, len(c.subs))
	for u := range c.subs {
		urls = append(urls, u)
	}
	c.mu.Unlock()
	for _, u := range urls {
		if !c.replaySubscribe(u) {
			break // the read loop will reconnect and replay
		}
	}
	c.mu.Lock()
	close(c.connReady)
	c.mu.Unlock()
	return conn, nil
}

// replaySubscribe sends one re-asserting Subscribe for url and follows
// the reply with watchReplay (a nak would otherwise strand the
// subscription — believed live here, unknown at the node — until the
// next reconnect; a concurrent Subscribe call waiting on this URL sends
// its own request and gets its own ack). It reports whether the frame
// was written; a send failure means the connection died and the next
// reconnect re-asserts everything.
func (c *Conn) replaySubscribe(url string) bool {
	id, ch := c.register()
	if err := c.send(&clientproto.Subscribe{ReqID: id, URL: url}); err != nil {
		c.unregister(id)
		return false
	}
	go c.watchReplay(url, ch)
	return true
}

// watchReplay follows one replayed Subscribe: acks and disconnects end
// it (the next reconnect replays again), a nak retries after RetryWait
// for as long as the URL stays in the desired set.
func (c *Conn) watchReplay(url string, ch chan result) {
	for {
		var r result
		select {
		case r = <-ch:
		case <-c.closeCh:
			return
		}
		if r.err != nil || r.nak == "" {
			return
		}
		select {
		case <-time.After(c.opts.RetryWait):
		case <-c.closeCh:
			return
		}
		c.mu.Lock()
		_, want := c.subs[url]
		c.mu.Unlock()
		if !want {
			return
		}
		id, nch := c.register()
		if err := c.send(&clientproto.Subscribe{ReqID: id, URL: url}); err != nil {
			c.unregister(id)
			return
		}
		ch = nch
	}
}

// disconnect clears the current connection and fails every pending
// request so blocked callers retry.
func (c *Conn) disconnect() {
	c.mu.Lock()
	c.cur = nil
	c.curAddr = ""
	c.connReady = make(chan struct{})
	pending := c.pending
	c.pending = make(map[uint64]chan result)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- result{err: errNotConnected}
	}
}

// run owns the connection lifecycle: read until failure, then sweep the
// address list (starting after the failed node) until one accepts.
func (c *Conn) run(conn net.Conn, addrIdx int) {
	defer close(c.runDone)
	for {
		pingStop := make(chan struct{})
		if c.opts.PingInterval > 0 {
			go c.pingLoop(conn, pingStop)
		}
		c.readAll(conn)
		close(pingStop)
		conn.Close()
		c.disconnect()

		conn = nil
		for conn == nil {
			for i := 1; i <= len(c.addrs); i++ {
				select {
				case <-c.closeCh:
					return
				default:
				}
				idx := (addrIdx + i) % len(c.addrs)
				nc, err := c.connect(c.dialCtx, c.addrs[idx])
				if err == nil {
					conn, addrIdx = nc, idx
					break
				}
				if errors.Is(err, ErrClosed) || c.dialCtx.Err() != nil {
					return
				}
			}
			if conn == nil {
				select {
				case <-time.After(c.opts.RetryWait):
				case <-c.closeCh:
					return
				}
			}
		}
	}
}

// readAll dispatches inbound frames until the connection fails. Reads
// are buffered (two raw reads per frame would double syscalls on the
// notification hot path).
func (c *Conn) readAll(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		if c.opts.PingInterval > 0 {
			conn.SetReadDeadline(time.Now().Add(3 * c.opts.PingInterval))
		}
		f, err := clientproto.ReadFrame(br)
		if err != nil {
			return
		}
		switch m := f.(type) {
		case *clientproto.Ack:
			c.resolve(m.ReqID, result{})
		case *clientproto.Nak:
			c.resolve(m.ReqID, result{nak: m.Reason})
		case *clientproto.Notify:
			c.deliver(corona.Notification{
				Client:  c.opts.Handle,
				Channel: m.Channel,
				Version: m.Version,
				Diff:    m.Diff,
				At:      m.At,
			})
		case *clientproto.ServerInfo:
			c.mu.Lock()
			c.lastInfo = ServerInfo{Node: m.Node, Peers: append([]string(nil), m.Peers...)}
			c.haveInfo = true
			c.mu.Unlock()
		default:
			return // client-to-server frame from a server: protocol error
		}
	}
}

// deliver hands one notification to the application, dropping the oldest
// buffered one when the channel is full so the stream stays current.
func (c *Conn) deliver(n corona.Notification) {
	for {
		select {
		case c.notifyCh <- n:
			return
		default:
			select {
			case <-c.notifyCh:
				c.dropped.Add(1)
			default:
			}
		}
	}
}

// pingLoop probes connection liveness; the acks also refresh ServerInfo
// and keep the read deadline fed.
func (c *Conn) pingLoop(conn net.Conn, stop chan struct{}) {
	t := time.NewTicker(c.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			id, _ := c.register()
			if err := c.send(&clientproto.Ping{ReqID: id}); err != nil {
				c.unregister(id)
				conn.Close()
				return
			}
		case <-stop:
			return
		case <-c.closeCh:
			return
		}
	}
}
