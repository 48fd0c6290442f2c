package netwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/codec"
	"corona/internal/pastry"
)

// maxFrame bounds a single frame (diffs are small; feeds are kilobytes —
// 16 MiB is generous). Batches larger than maxFrameFill split into
// multiple frames. frameOverhead is the worst-case header (count varint
// plus one length varint) a lone message adds to its frame; the sender
// bounds bodies by maxFrame-frameOverhead so every frame it builds
// passes the receiver's maxFrame check.
const (
	maxFrame      = 16 << 20
	maxFrameFill  = 1 << 20
	frameOverhead = 2 * binary.MaxVarintLen32
)

const (
	// maxBatch caps how many queued messages one frame coalesces.
	maxBatch = 64
	// quietAfter is how long a writer waits with an empty queue before
	// it gives back the storage its queue, batch and frame buffers grew
	// to. Storage outlives a momentary drain, so a steady stream reuses
	// it instead of regrowing it after each one.
	quietAfter = time.Second
	// writeTimeout bounds one frame's write to a peer.
	writeTimeout = 10 * time.Second
	// maxKeptBuffer caps the frame and batch buffers a connection keeps
	// across frames: one grown past it by a huge frame is dropped after
	// that frame instead of pinning the memory.
	maxKeptBuffer = 1 << 20
	// acceptRetryMin and acceptRetryMax bound the pause before retrying a
	// failed Accept (net/http's Server.Serve uses the same schedule): a
	// listener out of file descriptors recovers when some close, so the
	// loop waits instead of giving up on inbound connections for good.
	acceptRetryMin = 5 * time.Millisecond
	acceptRetryMax = time.Second
)

// Transport is a TCP-backed pastry.Transport with asynchronous, batched
// writes.
type Transport struct {
	listener net.Listener

	mu      sync.Mutex
	deliver func(pastry.Message)
	onFault func(pastry.Addr, error)
	peers   map[string]*peer
	inbound map[net.Conn]struct{}
	closed  bool
	// closing is closed on Close to wake writer goroutines blocked on
	// their queues or on reconnect backoff.
	closing chan struct{}

	// wireMu guards the byte-counter pair so WireBytes reads both sides
	// of one coherent total — two separate atomics let a scrape observe
	// a sent count from after a frame next to a received count from
	// before its response, a torn pair that breaks sent/received ratio
	// dashboards. Counter bumps are per-frame (alongside a syscall), so
	// the mutex adds nothing measurable.
	wireMu    sync.Mutex
	bytesSent uint64
	bytesRecv uint64
	dropCount atomic.Uint64

	// rng drives reconnect-backoff jitter; seeded per transport so
	// same-config transports spread their retry schedules apart. Guarded
	// by rngMu (multiple peer writers draw concurrently).
	rngMu sync.Mutex
	rng   *rand.Rand

	// dialTimeout bounds one connection attempt.
	dialTimeout time.Duration
	// queueLen bounds each peer's queue.
	queueLen int
	// dialAttempts is how many connection attempts a writer makes per
	// batch before reporting a send fault.
	dialAttempts int
	// backoffBase and backoffMax bound the exponential backoff between
	// reconnect attempts.
	backoffBase time.Duration
	backoffMax  time.Duration
	// idleTimeout is how long a peer's writer lingers with an empty
	// queue before retiring (releasing its goroutine, queue, and
	// connection). A later Send transparently revives the peer.
	idleTimeout time.Duration
}

// Listen binds a TCP listener at bind (for example "127.0.0.1:9001") and
// returns a transport whose inbound messages go to deliver. Set deliver
// later with OnDeliver when the node is constructed after the transport.
func Listen(bind string, deliver func(pastry.Message)) (*Transport, error) {
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("netwire: listen %s: %w", bind, err)
	}
	return newTransport(l, deliver), nil
}

// newTransport returns a transport accepting inbound connections on l.
func newTransport(l net.Listener, deliver func(pastry.Message)) *Transport {
	t := &Transport{
		listener:     l,
		deliver:      deliver,
		peers:        make(map[string]*peer),
		inbound:      make(map[net.Conn]struct{}),
		closing:      make(chan struct{}),
		dialTimeout:  3 * time.Second,
		queueLen:     1024,
		dialAttempts: 3,
		backoffBase:  50 * time.Millisecond,
		backoffMax:   2 * time.Second,
		idleTimeout:  2 * time.Minute,
	}
	go t.acceptLoop()
	return t
}

// OnDeliver sets the inbound message handler.
func (t *Transport) OnDeliver(deliver func(pastry.Message)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deliver = deliver
}

// OnSendFault registers the callback invoked (from a writer goroutine)
// when delivery to a peer fails after retries. It implements
// pastry.AsyncTransport; the overlay evicts and repairs around the peer.
func (t *Transport) OnSendFault(f func(to pastry.Addr, err error)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onFault = f
}

// Addr returns the bound listener address ("host:port").
func (t *Transport) Addr() string {
	return t.listener.Addr().String()
}

// WireBytes returns total bytes written to and read from the network.
// The pair is read under one lock, so callers never see a torn
// sent/received combination.
func (t *Transport) WireBytes() (sent, received uint64) {
	t.wireMu.Lock()
	defer t.wireMu.Unlock()
	return t.bytesSent, t.bytesRecv
}

func (t *Transport) addBytesSent(n uint64) {
	t.wireMu.Lock()
	t.bytesSent += n
	t.wireMu.Unlock()
}

func (t *Transport) addBytesRecv(n uint64) {
	t.wireMu.Lock()
	t.bytesRecv += n
	t.wireMu.Unlock()
}

// nextBackoff returns the maximum delay to wait before the given dial
// attempt (zero for the first), shared by connect() (which spends the
// budget) and DialBudget (which advertises it) so the two cannot drift.
// Actual reconnect waits are jittered below this cap (jitterDelay);
// DialBudget uses the cap directly, so it stays a true worst-case bound.
func (t *Transport) nextBackoff(attempt int, backoff time.Duration) time.Duration {
	if attempt == 0 {
		return 0
	}
	return min(backoff, t.backoffMax)
}

// transportSeeds decorrelates transports created within one clock tick.
var transportSeeds atomic.Int64

// jitterDelay draws a randomized reconnect wait in [d/2, d]: half the
// deterministic backoff as a floor (the peer really is down; hammering
// helps nobody) plus a uniform jitter. Without it, every transport
// sharing a configuration retries a restarted peer on the identical
// schedule — the reconnect stampede arrives in synchronized waves.
func (t *Transport) jitterDelay(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	t.rngMu.Lock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(time.Now().UnixNano() + transportSeeds.Add(1)*1000003))
	}
	j := t.rng.Int63n(int64(d)/2 + 1)
	t.rngMu.Unlock()
	return d/2 + time.Duration(j)
}

// DialBudget returns the worst-case time a writer spends trying to reach
// a new peer before reporting a send fault: every dial attempt at its
// full timeout plus the backoff between attempts. Callers waiting on an
// asynchronous handshake (the live join path) should allow at least this
// long before failing over.
func (t *Transport) DialBudget() time.Duration {
	total := time.Duration(t.dialAttempts) * t.dialTimeout
	backoff := t.backoffBase
	for i := 1; i < t.dialAttempts; i++ {
		total += t.nextBackoff(i, backoff)
		backoff *= 2
	}
	return total
}

// Dropped returns how many messages were discarded locally: backpressure
// drops, encode failures, and messages abandoned when a peer stayed
// unreachable through the retry budget.
func (t *Transport) Dropped() uint64 {
	return t.dropCount.Load()
}

// PeerQueueStat describes one peer's outbound send queue.
type PeerQueueStat struct {
	Endpoint string
	// Depth is how many messages to the peer wait for its writer, not
	// counting the batch the writer is sending.
	Depth int
	// Capacity is the bound on Depth; Send drops a message beyond it.
	Capacity int
	// Drops counts messages to the peer discarded locally: beyond the
	// bound, unencodable, or undeliverable through the retry budget.
	Drops uint64
}

// PeerQueues snapshots every live peer's outbound queue — instantaneous
// depth against capacity plus that peer's cumulative local drops — so
// backpressure is observable (on a live node's /metrics) instead of
// silent loss. Retired (idle) peers drop out of the report; their drops
// remain in the transport-wide Dropped total.
func (t *Transport) PeerQueues() []PeerQueueStat {
	t.mu.Lock()
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	out := make([]PeerQueueStat, len(peers))
	for i, p := range peers {
		p.mu.Lock()
		depth := p.n
		p.mu.Unlock()
		out[i] = PeerQueueStat{
			Endpoint: p.endpoint,
			Depth:    depth,
			Capacity: t.queueLen,
			Drops:    p.drops.Load(),
		}
	}
	return out
}

// Close shuts the listener, all writer goroutines, and every connection —
// outbound and accepted.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.closing)
	inbound := t.inbound
	t.inbound = map[net.Conn]struct{}{}
	t.mu.Unlock()
	for c := range inbound {
		c.Close()
	}
	return t.listener.Close()
}

// acceptLoop accepts inbound connections until the listener or the
// transport closes, retrying any other Accept error after a pause.
func (t *Transport) acceptLoop() {
	var pause time.Duration
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			pause = min(max(2*pause, acceptRetryMin), acceptRetryMax)
			select {
			case <-time.After(pause):
				continue
			case <-t.closing:
				return
			}
		}
		pause = 0
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

func (t *Transport) forgetInbound(conn net.Conn) {
	conn.Close()
	t.mu.Lock()
	delete(t.inbound, conn)
	t.mu.Unlock()
}

// readLoop decodes one connection's hello byte and frame stream,
// delivering every message in order. Every frame is read into one buffer
// the connection reuses: delivery is synchronous, handlers see payloads
// materialized by decoders that copy, and pastry copies a payload it
// forwards, so nothing aliases the buffer once deliverFrame returns. The
// default-size reader gathers headers and small frames; a body larger
// than it is read mostly straight into the frame buffer.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.forgetInbound(conn)
	br := bufio.NewReader(conn)
	hello, err := br.ReadByte()
	if err != nil {
		return
	}
	if hello != codec.ID {
		return // not this wire format ('j', 'b', garbage); drop the connection
	}
	t.addBytesRecv(1)
	var lenBuf [4]byte
	var frame []byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > maxFrame {
			return
		}
		if uint32(cap(frame)) < n {
			frame = make([]byte, n)
		}
		body := frame[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		t.addBytesRecv(uint64(4 + n))
		if !t.deliverFrame(body) {
			return
		}
		if cap(frame) > maxKeptBuffer {
			frame = nil
		}
	}
}

// deliverFrame parses a batch frame body and delivers its messages,
// reporting false on a malformed frame (the connection is dropped: after
// a framing error the stream position is unrecoverable). The handler is
// snapshotted once per frame, not per message, to keep the receive hot
// path off the transport mutex.
func (t *Transport) deliverFrame(body []byte) bool {
	t.mu.Lock()
	deliver := t.deliver
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return false
	}
	count, off := binary.Uvarint(body)
	if off <= 0 {
		return false
	}
	rest := body[off:]
	for i := uint64(0); i < count; i++ {
		l, m := binary.Uvarint(rest)
		if m <= 0 || l > uint64(len(rest)-m) {
			return false
		}
		msgBody := rest[m : m+int(l)]
		rest = rest[m+int(l):]
		msg, err := codec.Decode(msgBody)
		if err != nil {
			continue // skip one undecodable message, keep the stream
		}
		if deliver != nil {
			deliver(msg)
		}
	}
	return true
}

// Send implements pastry.Transport: a non-blocking enqueue on the
// destination's outbound queue. When that queue is full, Send drops the
// message and counts it in Dropped: the overlay treats wire loss like
// UDP loss, and periodic maintenance repairs any state the lost message
// carried. A nil return means the message was accepted locally or
// dropped, not that it was delivered; delivery failures arrive through
// OnSendFault. Send returns an error only when the transport is closed.
func (t *Transport) Send(to pastry.Addr, msg pastry.Message) error {
	for {
		p, err := t.peerFor(to.Endpoint)
		if err != nil {
			return err
		}
		if p.enqueue(to, msg) {
			return nil
		}
		// The peer retired between lookup and enqueue; loop to revive it.
	}
}

var errClosed = fmt.Errorf("netwire: transport closed")

// peerFor returns the peer state for an endpoint, creating its queue and
// writer goroutine on first use.
func (t *Transport) peerFor(endpoint string) (*peer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errClosed
	}
	if p, ok := t.peers[endpoint]; ok {
		return p, nil
	}
	p := &peer{
		t:        t,
		endpoint: endpoint,
		kick:     make(chan struct{}, 1),
	}
	t.peers[endpoint] = p
	go p.writeLoop()
	return p, nil
}

// fault invokes the registered send-fault callback on a fresh goroutine:
// the overlay's callback takes the overlay's and the application's locks
// and sends repair requests, and the writer that reported the fault must
// not leave its queue undrained while it waits on that work.
func (t *Transport) fault(to pastry.Addr, err error) {
	t.mu.Lock()
	f := t.onFault
	t.mu.Unlock()
	if f != nil {
		go f(to, fmt.Errorf("%w: %v", pastry.ErrUnreachable, err))
	}
}

// outMsg is one queued message with the full destination address kept for
// fault reporting (the overlay evicts by identifier, not endpoint).
type outMsg struct {
	to  pastry.Addr
	msg pastry.Message
}

// peer owns one destination's outbound path: a bounded queue and the
// writer goroutine that drains it onto a single connection. An idle
// writer retires — marks the peer dead, removes it from the transport,
// and exits — so churned-out endpoints do not pin goroutines forever.
type peer struct {
	t        *Transport
	endpoint string
	// kick wakes the writer after an enqueue. One pending wake is
	// enough: the writer rereads the queue each time it wakes.
	kick chan struct{}

	// drops counts messages to this peer discarded locally (backpressure,
	// encode failure, exhausted retry budget); the transport-wide
	// dropCount accumulates the same events across all peers.
	drops atomic.Uint64

	// mu guards the queue and retired. It is held across an enqueue's
	// liveness check and its insert, so retirement (which requires an
	// empty queue) cannot slip between them.
	mu sync.Mutex
	// queue is a ring holding the n messages waiting for the writer, the
	// oldest at head. It grows on demand up to the transport's queueLen
	// and is released once the peer has been quiet for quietAfter.
	queue   []outMsg
	head, n int
	retired bool
}

// drop records n locally discarded messages against this peer and the
// transport total.
func (p *peer) drop(n uint64) {
	p.drops.Add(n)
	p.t.dropCount.Add(n)
}

// enqueue queues a message, dropping it when the queue is full. ok=false
// means the peer retired and the caller must fetch a fresh one.
func (p *peer) enqueue(to pastry.Addr, msg pastry.Message) (ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.retired {
		return false
	}
	if p.n >= p.t.queueLen {
		p.drop(1)
		return true // backpressure loss is not a destination failure
	}
	if p.n == len(p.queue) {
		// Full: double the ring, oldest message first.
		q := make([]outMsg, min(max(2*p.n, 1), p.t.queueLen))
		copy(q[copy(q, p.queue[p.head:]):], p.queue[:p.head])
		p.queue, p.head = q, 0
	}
	p.queue[(p.head+p.n)%len(p.queue)] = outMsg{to: to, msg: msg}
	p.n++
	select {
	case p.kick <- struct{}{}:
	default:
	}
	return true
}

// take moves up to maxBatch of the oldest queued messages to dst.
func (p *peer) take(dst []outMsg) []outMsg {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := min(p.n, maxBatch); k > 0; k-- {
		dst = append(dst, p.queue[p.head])
		p.queue[p.head] = outMsg{}
		p.head = (p.head + 1) % len(p.queue)
		p.n--
	}
	return dst
}

// release drops the queue's storage if it holds no message.
func (p *peer) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		p.queue, p.head = nil, 0
	}
}

// retire removes the peer from the transport if its queue is empty,
// reporting whether the writer should exit.
func (p *peer) retire() bool {
	p.t.mu.Lock()
	p.mu.Lock()
	if p.n == 0 {
		p.retired = true
		delete(p.t.peers, p.endpoint)
	}
	retired := p.retired
	p.mu.Unlock()
	p.t.mu.Unlock()
	return retired
}

// writeLoop drains the queue in batches onto the peer's connection,
// dialing lazily and reconnecting with exponential backoff. It is the
// only goroutine that ever writes to this peer, so concurrent Send calls
// cannot interleave partial frames.
func (p *peer) writeLoop() {
	w := writer{p: p}
	defer func() {
		if w.conn != nil {
			w.conn.Close()
		}
	}()
	timer := time.NewTimer(quietAfter)
	defer timer.Stop()
	for {
		w.batch = p.take(w.batch[:0])
		if len(w.batch) == 0 {
			if !w.await(timer) {
				return
			}
			continue
		}
		open := w.send(w.batch)
		clear(w.batch) // the messages are sent; keep only the storage
		if !open {
			return
		}
		// A huge batch's buffers are not kept for the next one.
		if cap(w.buf) > maxKeptBuffer {
			w.buf = nil
		}
		if cap(w.frame) > maxKeptBuffer {
			w.frame = nil
		}
	}
}

// await waits for a message to be queued. A peer quiet for quietAfter
// gives back its queue's and writer's storage; one quiet for the
// transport's idleTimeout retires. await reports false when the writer
// should exit: the peer retired or the transport closed.
func (w *writer) await(timer *time.Timer) bool {
	p := w.p
	quiet := min(quietAfter, p.t.idleTimeout)
	timer.Reset(quiet)
	select {
	case <-p.kick:
		return true
	case <-p.t.closing:
		return false
	case <-timer.C:
	}
	p.release()
	w.batch, w.buf, w.ends, w.bodies, w.frame = nil, nil, nil, nil, nil
	timer.Reset(p.t.idleTimeout - quiet)
	select {
	case <-p.kick:
		return true
	case <-p.t.closing:
		return false
	case <-timer.C:
		return !p.retire()
	}
}

// writer is a peer's writer goroutine's connection and the buffers it
// reuses from batch to batch.
type writer struct {
	p    *peer
	conn net.Conn
	// batch holds the messages being sent, taken from the queue.
	batch []outMsg
	// buf holds a batch's encoded bodies, back to back; ends marks where
	// each one stops, and bodies slices them out.
	buf    []byte
	ends   []int
	bodies [][]byte
	// frame holds the frame being written, sized by the largest frame
	// written since the writer last released its storage.
	frame []byte
}

// send encodes a batch and writes it to the peer, dialing first when no
// connection is open. A message that cannot be encoded or delivered is
// dropped and counted. send reports false once the transport has closed.
func (w *writer) send(batch []outMsg) bool {
	p := w.p
	w.buf, w.ends = w.buf[:0], w.ends[:0]
	for _, m := range batch {
		start := len(w.buf)
		var err error
		w.buf, err = codec.AppendEncode(w.buf, m.msg)
		if err != nil || len(w.buf)-start > maxFrame-frameOverhead {
			w.buf = w.buf[:start]
			p.drop(1)
			continue
		}
		w.ends = append(w.ends, len(w.buf))
	}
	if len(w.ends) == 0 {
		return true
	}
	w.bodies = w.bodies[:0]
	start := 0
	for _, end := range w.ends {
		w.bodies = append(w.bodies, w.buf[start:end])
		start = end
	}
	to := batch[len(batch)-1].to

	if w.conn == nil {
		conn, err := p.connect()
		if err == errClosed {
			return false
		}
		if err != nil {
			// Count the drop before reporting the fault, so whoever the
			// fault reaches already sees it in Dropped.
			p.drop(uint64(len(w.bodies)))
			p.t.fault(to, err)
			return true
		}
		w.conn = conn
	}
	sent, err := w.writeFrames(w.bodies)
	if err == nil {
		return true
	}
	w.conn.Close()
	// A write failure on an established connection usually means the
	// peer restarted since the last batch (the classic stale connection):
	// redial ONCE — a single attempt, not the full backoff budget, so a
	// genuinely dead peer still faults fast — and retry the unsent
	// remainder before dropping anything.
	remaining := w.bodies[sent:]
	var rerr error
	w.conn, rerr = p.dialOnce()
	if rerr == errClosed {
		return false
	}
	if rerr == nil {
		var resent int
		if resent, rerr = w.writeFrames(remaining); rerr != nil {
			w.conn.Close()
			w.conn = nil
			remaining = remaining[resent:]
		} else {
			remaining = nil
		}
	}
	if len(remaining) > 0 {
		p.drop(uint64(len(remaining)))
		p.t.fault(to, err)
	}
	return true
}

// connect dials the peer, retrying with exponential backoff up to the
// transport's attempt budget, and sends the codec hello byte.
func (p *peer) connect() (net.Conn, error) {
	backoff := p.t.backoffBase
	var lastErr error
	for attempt := 0; attempt < p.t.dialAttempts; attempt++ {
		if wait := p.t.nextBackoff(attempt, backoff); wait > 0 {
			select {
			case <-time.After(p.t.jitterDelay(wait)):
			case <-p.t.closing:
				return nil, errClosed
			}
			backoff *= 2
		}
		conn, err := p.dialOnce()
		if err != nil {
			lastErr = err
			continue
		}
		return conn, nil
	}
	return nil, lastErr
}

// dialOnce makes a single connection attempt and sends the hello byte.
func (p *peer) dialOnce() (net.Conn, error) {
	select {
	case <-p.t.closing:
		return nil, errClosed
	default:
	}
	conn, err := net.DialTimeout("tcp", p.endpoint, p.t.dialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write([]byte{codec.ID}); err != nil {
		conn.Close()
		return nil, err
	}
	p.t.addBytesSent(1)
	return conn, nil
}

// writeFrames packs encoded bodies into one or more frames (splitting
// when a batch exceeds maxFrameFill) and writes each frame with one
// call. It returns how many bodies reached the wire before any error.
func (w *writer) writeFrames(bodies [][]byte) (int, error) {
	sent := 0
	for len(bodies) > 0 {
		n, size := 0, 0
		for n < len(bodies) {
			recSize := uvarintLen(uint64(len(bodies[n]))) + len(bodies[n])
			if n > 0 && size+recSize > maxFrameFill {
				break
			}
			size += recSize
			n++
		}
		length := uvarintLen(uint64(n)) + size

		f := slices.Grow(w.frame[:0], 4+length)
		f = binary.BigEndian.AppendUint32(f, uint32(length))
		f = binary.AppendUvarint(f, uint64(n))
		for _, body := range bodies[:n] {
			f = binary.AppendUvarint(f, uint64(len(body)))
			f = append(f, body...)
		}
		w.frame = f
		w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := w.conn.Write(f); err != nil {
			return sent, err
		}
		w.p.t.addBytesSent(uint64(len(f)))
		sent += n
		bodies = bodies[n:]
	}
	return sent, nil
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}
