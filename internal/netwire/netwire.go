package netwire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
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
	// writeTimeout bounds one frame's write to a peer.
	writeTimeout = 10 * time.Second
	bufSize      = 64 << 10
	// maxKeptBuffer caps the frame and batch buffers a connection keeps
	// across frames: one grown past it by a huge frame is dropped after
	// that frame instead of pinning the memory.
	maxKeptBuffer = 1 << 20
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
	// queueLen is the per-peer outbound queue depth.
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
	return t, nil
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

// PeerQueueStat describes one peer's outbound send queue: its
// instantaneous depth against capacity, plus how many messages to that
// peer were dropped locally (backpressure, encode failure, retry budget
// exhausted).
type PeerQueueStat struct {
	Endpoint string
	Depth    int
	Capacity int
	Drops    uint64
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
		out[i] = PeerQueueStat{
			Endpoint: p.endpoint,
			Depth:    len(p.queue),
			Capacity: cap(p.queue),
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

func (t *Transport) acceptLoop() {
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
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
// forwards, so nothing aliases the buffer once deliverFrame returns.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.forgetInbound(conn)
	br := bufio.NewReaderSize(conn, bufSize)
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
		ok, err := p.enqueue(to, msg)
		if err != nil {
			return err
		}
		if ok {
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
		queue:    make(chan outMsg, t.queueLen),
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
	queue    chan outMsg

	// drops counts messages to this peer discarded locally (backpressure,
	// encode failure, exhausted retry budget); the transport-wide
	// dropCount accumulates the same events across all peers.
	drops atomic.Uint64

	// mu guards retired and is held across the queue insert, so
	// retirement (which requires an empty queue) cannot slip between an
	// enqueue's liveness check and its insert.
	mu      sync.Mutex
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
func (p *peer) enqueue(to pastry.Addr, msg pastry.Message) (ok bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.retired {
		return false, nil
	}
	select {
	case p.queue <- outMsg{to: to, msg: msg}:
		return true, nil
	case <-p.t.closing:
		return false, errClosed
	default:
		p.drop(1)
		return true, nil // backpressure loss is not a destination failure
	}
}

// retire removes the peer from the transport if its queue is empty,
// reporting whether the writer should exit.
func (p *peer) retire() bool {
	p.t.mu.Lock()
	p.mu.Lock()
	if len(p.queue) == 0 {
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
	idle := p.t.idleTimeout
	var conn net.Conn
	var bw *bufio.Writer
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	idleTimer := time.NewTimer(idle)
	defer idleTimer.Stop()
	batch := make([]outMsg, 0, maxBatch)
	bodies := make([][]byte, 0, maxBatch)
	// buf holds the whole batch's encoded bodies, back to back; ends
	// marks where each one stops. Both are reused across batches.
	var buf []byte
	ends := make([]int, 0, maxBatch)
	for {
		batch = batch[:0]
		if cap(buf) > maxKeptBuffer {
			buf = nil // a huge batch's buffer is not kept while idle
		}
		if !idleTimer.Stop() {
			select {
			case <-idleTimer.C:
			default:
			}
		}
		idleTimer.Reset(idle)
		select {
		case m := <-p.queue:
			batch = append(batch, m)
		case <-idleTimer.C:
			if p.retire() {
				return
			}
			continue
		case <-p.t.closing:
			return
		}
	drain:
		for len(batch) < maxBatch {
			select {
			case m := <-p.queue:
				batch = append(batch, m)
			default:
				break drain
			}
		}

		buf, ends = buf[:0], ends[:0]
		for _, m := range batch {
			start := len(buf)
			var err error
			buf, err = codec.AppendEncode(buf, m.msg)
			if err != nil || len(buf)-start > maxFrame-frameOverhead {
				buf = buf[:start]
				p.drop(1)
				continue
			}
			ends = append(ends, len(buf))
		}
		if len(ends) == 0 {
			continue
		}
		bodies = bodies[:0]
		start := 0
		for _, end := range ends {
			bodies = append(bodies, buf[start:end])
			start = end
		}

		if conn == nil {
			var err error
			conn, bw, err = p.connect()
			if err != nil {
				if err == errClosed {
					return
				}
				// Count the drop before reporting the fault, so whoever
				// the fault reaches already sees it in Dropped.
				p.drop(uint64(len(bodies)))
				p.t.fault(batch[len(batch)-1].to, err)
				continue
			}
		}
		if sent, err := p.writeFrames(conn, bw, bodies); err != nil {
			conn.Close()
			conn, bw = nil, nil
			// A write failure on an established connection usually means
			// the peer restarted since the last batch (the classic stale
			// connection): redial ONCE — a single attempt, not the full
			// backoff budget, so a genuinely dead peer still faults fast
			// — and retry the unsent remainder before dropping anything.
			remaining := bodies[sent:]
			var rerr error
			conn, bw, rerr = p.dialOnce()
			if rerr == errClosed {
				return
			}
			if rerr == nil {
				var resent int
				if resent, rerr = p.writeFrames(conn, bw, remaining); rerr != nil {
					conn.Close()
					conn, bw = nil, nil
					remaining = remaining[resent:]
				} else {
					remaining = nil
				}
			}
			if len(remaining) > 0 {
				p.drop(uint64(len(remaining)))
				p.t.fault(batch[len(batch)-1].to, err)
			}
		}
	}
}

// connect dials the peer, retrying with exponential backoff up to the
// transport's attempt budget, and sends the codec hello byte.
func (p *peer) connect() (net.Conn, *bufio.Writer, error) {
	backoff := p.t.backoffBase
	var lastErr error
	for attempt := 0; attempt < p.t.dialAttempts; attempt++ {
		if wait := p.t.nextBackoff(attempt, backoff); wait > 0 {
			select {
			case <-time.After(p.t.jitterDelay(wait)):
			case <-p.t.closing:
				return nil, nil, errClosed
			}
			backoff *= 2
		}
		conn, bw, err := p.dialOnce()
		if err != nil {
			lastErr = err
			continue
		}
		return conn, bw, nil
	}
	return nil, nil, lastErr
}

// dialOnce makes a single connection attempt and sends the hello byte.
func (p *peer) dialOnce() (net.Conn, *bufio.Writer, error) {
	select {
	case <-p.t.closing:
		return nil, nil, errClosed
	default:
	}
	conn, err := net.DialTimeout("tcp", p.endpoint, p.t.dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriterSize(conn, bufSize)
	if err := bw.WriteByte(codec.ID); err != nil {
		conn.Close()
		return nil, nil, err
	}
	p.t.addBytesSent(1)
	return conn, bw, nil
}

// writeFrames packs encoded bodies into one or more frames (splitting
// when a batch exceeds maxFrameFill) and flushes them. Each frame's
// header, body lengths and bodies go straight into bw. It returns how
// many bodies reached the wire before any error.
func (p *peer) writeFrames(conn net.Conn, bw *bufio.Writer, bodies [][]byte) (int, error) {
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

		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		for shift := 24; shift >= 0; shift -= 8 {
			bw.WriteByte(byte(length >> shift))
		}
		writeUvarint(bw, uint64(n))
		for _, body := range bodies[:n] {
			writeUvarint(bw, uint64(len(body)))
			bw.Write(body)
		}
		// bw latches the first write error; Flush reports it.
		if err := bw.Flush(); err != nil {
			return sent, err
		}
		p.t.addBytesSent(uint64(4 + length))
		sent += n
		bodies = bodies[n:]
	}
	return sent, nil
}

// writeUvarint writes v to bw as a uvarint, a byte at a time so no
// scratch escapes to the heap.
func writeUvarint(bw *bufio.Writer, v uint64) {
	for ; v >= 0x80; v >>= 7 {
		bw.WriteByte(byte(v) | 0x80)
	}
	bw.WriteByte(byte(v))
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}
