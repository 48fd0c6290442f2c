// Package pastry implements the prefix-routing structured overlay that
// Corona is layered on (paper §3, [25]).
//
// Each node has a 160-bit identifier. The overlay maintains two pieces of
// state per node: a leaf set of the numerically closest neighbors on the
// ring, and a routing table whose entry (row i, column j) points to a node
// sharing exactly i prefix digits with this node and having j as its
// (i+1)-th digit. The routing table induces a directed acyclic graph
// rooted at every node; Corona's wedges are subsets of this DAG and are
// reached by prefix-constrained broadcast (paper §3.1, §3.4).
//
// The package is transport-agnostic: messages flow through the Transport
// interface, implemented in-memory by simnet (for simulation) and over TCP
// by netwire (for live deployment). Handle binds a message type to its
// payload type and handler, for the overlay's own protocol and Corona's
// alike; that binding is also how a payload that arrived as bytes is
// decoded.
package pastry

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"corona/internal/clock"
	"corona/internal/ids"
)

// Addr identifies a reachable overlay node: its ring identifier plus a
// transport-specific endpoint string (for example "sim://17" or
// "128.84.223.105:9001").
type Addr struct {
	ID       ids.ID
	Endpoint string
}

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.ID.IsZero() && a.Endpoint == "" }

// String renders the address for logs.
func (a Addr) String() string {
	return fmt.Sprintf("%s@%s", a.ID.Short(), a.Endpoint)
}

// Message is the overlay message envelope. Payloads are application-defined;
// under simnet they are passed by reference (and must be treated as
// immutable), under netwire the codec package sends them in their native
// binary form.
type Message struct {
	// Type selects the application handler at the destination.
	Type string
	// Key is the routing key for routed messages; zero for direct sends.
	Key ids.ID
	// From is the originating node.
	From Addr
	// Hops counts forwarding steps taken so far.
	Hops int
	// Cover is the prefix-broadcast coverage depth (see Node.Broadcast).
	Cover int
	// Payload is the application body. On messages decoded from the wire
	// it stays nil until the handler registered for Type decodes it (see
	// Handle), so a node that only forwards a message never pays for
	// payload decoding.
	Payload Payload

	// raw retains the encoded payload body exactly as it arrived off the
	// wire, so forwarding (routed next-hop or broadcast fan-out) re-sends
	// the bytes verbatim instead of decode-struct→re-marshal. The slice
	// aliases the transport's receive buffer, so it is valid only during
	// the transport's deliver call and must be treated as immutable: a
	// forwarder copies it once (detachRaw) before queueing the message
	// onward. Materializing the typed payload clears raw, because a
	// handler may mutate the struct and re-send it.
	raw    []byte
	hasRaw bool

	// shared, when non-nil, is an encode-once cell attached by fanOut to
	// every copy of a broadcast: the codec caches the hop-invariant encoded
	// prefix (everything but the varint Hops/Cover trailer) here, so the
	// payload region is encoded once per hop and shared across all
	// routing contacts.
	shared *sharedEncoding
}

// sharedEncoding caches the encoded hop-invariant prefix of a message
// fanned out to many contacts. Writer goroutines of different peers
// encode concurrently, hence the mutex. Copies sharing a cell must differ
// only in Hops and Cover — fanOut, the only producer, guarantees it.
type sharedEncoding struct {
	mu     sync.Mutex
	prefix []byte // nil until the first encode stores it
}

// SetRawPayload attaches the wire-encoded payload body to the message,
// deferring typed decoding until a handler takes the message. The codec
// calls this from Decode.
func (m *Message) SetRawPayload(raw []byte) {
	m.raw = raw
	m.hasRaw = true
	m.Payload = nil
}

// RawPayload returns the retained encoded payload body. ok is false when
// the message has no retained blob (locally constructed, or already
// materialized). The codec uses it to re-send forwarded payloads verbatim.
func (m Message) RawPayload() (raw []byte, ok bool) {
	return m.raw, m.hasRaw
}

// detachRaw gives the message its own copy of a retained raw payload,
// so it stays valid after the transport reuses its receive buffer.
func (m *Message) detachRaw() {
	if m.hasRaw {
		m.raw = bytes.Clone(m.raw)
	}
}

// ShareEncoding attaches a fresh encode-once cell to the message. Every
// value copy made afterwards shares the cell; the caller asserts that all
// such copies differ only in Hops and Cover.
func (m *Message) ShareEncoding() {
	m.shared = &sharedEncoding{}
}

// SharesEncoding reports whether the message carries an encode-once cell,
// so the codec can skip the separate prefix buffer for unicast messages
// (where caching would be a dead store).
func (m Message) SharesEncoding() bool {
	return m.shared != nil
}

// CachedEncodePrefix returns the encoded hop-invariant prefix previously
// stored, or ok=false when the message has no sharing cell or nothing is
// cached yet.
func (m Message) CachedEncodePrefix() (prefix []byte, ok bool) {
	if m.shared == nil {
		return nil, false
	}
	m.shared.mu.Lock()
	defer m.shared.mu.Unlock()
	return m.shared.prefix, m.shared.prefix != nil
}

// StoreEncodePrefix caches the encoded hop-invariant prefix. It is a no-op
// when the message has no sharing cell. The stored slice must not be
// mutated afterwards.
func (m Message) StoreEncodePrefix(prefix []byte) {
	if m.shared == nil {
		return
	}
	m.shared.mu.Lock()
	defer m.shared.mu.Unlock()
	m.shared.prefix = prefix
}

// Transport delivers messages between overlay nodes.
type Transport interface {
	// Send hands msg to the transport for delivery to the node at to.
	// Synchronous transports (simnet) deliver or fail inline: a non-nil
	// error indicates the destination is unreachable (crashed,
	// partitioned). Asynchronous transports (netwire) return nil on
	// local enqueue and report delivery failures later through the
	// AsyncTransport fault callback. Either way the report reaches
	// peerFailed: every failed delivery is one fault, which runs the
	// application's OnFault callback; the peer is evicted from the
	// routing state and repaired around once, on the first fault that
	// finds it there.
	Send(to Addr, msg Message) error
}

// AsyncTransport is implemented by transports whose Send enqueues rather
// than delivers. The overlay registers a fault callback at construction so
// asynchronous delivery failures take the same path synchronous Send
// errors do: each one reaches OnFault, and the first one evicts.
type AsyncTransport interface {
	Transport
	// OnSendFault registers the callback invoked each time delivery to
	// a peer fails after the transport's retry budget. The callback may
	// be invoked from transport-internal goroutines.
	OnSendFault(func(to Addr, err error))
}

// ErrUnreachable is returned by transports when the destination is down.
var ErrUnreachable = errors.New("pastry: destination unreachable")

// leafSetSize is the number of neighbors the leaf set keeps on each side
// of the ring (the paper's f: channel state is replicated on the f
// closest neighbors of the primary owner, §3.3).
const leafSetSize = 4

// MaxTableRows bounds the routing table depth. With n random nodes,
// prefixes longer than log_16(n)+3 digits are vanishingly rare, so deeper
// rows would stay empty; bounding them keeps memory proportional to
// useful state.
const MaxTableRows = 10

// Node is one overlay participant. Its methods are safe for concurrent use:
// live deployments invoke them from multiple connection goroutines, while
// simulations run single-threaded through the event loop.
type Node struct {
	self      Addr
	transport Transport
	clk       clock.Clock

	mu     sync.RWMutex
	table  *routingTable
	leaves *leafSet
	// handlers maps each message type to the entry Handle made for it,
	// which decodes the payload and runs the handler.
	handlers map[string]func(Message)
	// joined is closed, once and under mu, when the node completes a
	// Join or Bootstrap; joinWaits are the pending JoinWaits that
	// closing it answers, and announce the members a joining node
	// has announced itself to and not yet heard back from.
	joined    chan struct{}
	joinWaits []*joinWait
	announce  map[ids.ID]struct{}

	// onFault, if set, is called on every failed delivery to a peer.
	// Corona repairs ownership and dead entry records from it.
	onFault func(Addr)

	// gen counts changes to the leaf set and routing table, so callers
	// can cache what they derive from them (Generation).
	gen uint64

	// fanScratch pools fan-out destination buffers (see fanOut); pooled
	// rather than a single per-node buffer because concurrent transports
	// may broadcast from several goroutines at once.
	fanScratch sync.Pool

	stats Stats
}

// Stats counts overlay activity for the evaluation harness. Traffic
// below the overlay (wire bytes, local drops, send queues) is counted by
// the transport itself.
type Stats struct {
	MessagesSent      uint64
	MessagesRouted    uint64 // routed messages forwarded through this node
	MessagesDelivered uint64
	BroadcastsSent    uint64
	RouteHopsTotal    uint64 // accumulated hop counts of delivered messages
	Repairs           uint64
}

// NewNode creates an overlay node. The node does not join a ring until
// Bootstrap or Join is called.
func NewNode(self Addr, transport Transport, clk clock.Clock) *Node {
	n := &Node{
		self:      self,
		transport: transport,
		clk:       clk,
		table:     newRoutingTable(self.ID),
		leaves:    newLeafSet(self.ID, leafSetSize),
		handlers:  make(map[string]func(Message)),
		joined:    make(chan struct{}),
	}
	Handle(n, msgJoin, n.handleJoin)
	Handle(n, msgJoinReply, n.handleJoinReply)
	Handle(n, msgStateRequest, n.handleStateRequest)
	Handle(n, msgStateReply, n.handleStateReply)
	if at, ok := transport.(AsyncTransport); ok {
		// Route asynchronous delivery failures into the same eviction
		// path synchronous Send errors take.
		at.OnSendFault(func(to Addr, _ error) { n.peerFailed(to) })
	}
	return n
}

// Self returns this node's address.
func (n *Node) Self() Addr { return n.self }

// Stats returns a snapshot of the node's activity counters.
func (n *Node) Stats() Stats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.stats
}

// OnFault registers a callback invoked on every failed delivery to a
// peer, synchronous or reported by the transport later, whether or not
// the peer was still in the routing state: eviction happens once, the
// callback every time, so the application can repair state that names
// the peer however long after the eviction it sends there. At most one
// callback is kept.
func (n *Node) OnFault(f func(Addr)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onFault = f
}

// Leaves returns the current leaf set, closest first on each side.
func (n *Node) Leaves() []Addr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.leaves.all()
}

// Neighbors returns the k numerically closest known neighbors of this node
// (from the leaf set), used by Corona to pick the f additional owners of a
// channel (paper §3.3).
func (n *Node) Neighbors(k int) []Addr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.leaves.closest(k)
}

// RoutingEntry returns the routing table entry at (row, col), or a zero
// Addr when empty.
func (n *Node) RoutingEntry(row, col int) Addr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.table.get(row, col)
}

// RowContacts returns the non-empty entries of routing table row r,
// excluding this node itself. These are the "contacts in the routing table
// at row r" that Corona's maintenance protocol instructs (paper §3.3).
func (n *Node) RowContacts(r int) []Addr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.table.row(r)
}

// KnownNodes returns every distinct peer in the routing state (leaf set
// and routing table), sorted by identifier. Leaf set and table are merged
// into one slice, sorted, and adjacent duplicates dropped: no map, so the
// only allocation is the result.
func (n *Node) KnownNodes() []Addr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l := n.leaves
	out := make([]Addr, 0, len(l.cw)+len(l.ccw)+n.table.contactCount(0))
	out = append(out, l.cw...)
	out = append(out, l.ccw...)
	for _, row := range n.table.rows {
		for _, a := range row {
			if !a.IsZero() {
				out = append(out, a)
			}
		}
	}
	// Fixed order: callers index into this with seeded draws (Stabilize),
	// so the result must not depend on insertion history.
	slices.SortFunc(out, func(a, b Addr) int { return a.ID.Cmp(b.ID) })
	return slices.CompactFunc(out, func(a, b Addr) bool { return a.ID == b.ID })
}

// Generation returns a counter that advances whenever the leaf set or
// the routing table changes: a view derived from KnownNodes or LeafReach
// stays current while it does not move.
func (n *Node) Generation() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.gen
}

// LeafReach reports how far the leaf set reaches around the ring: the
// identifiers of its farthest counter-clockwise and clockwise members,
// and whether it holds every other node of the ring (its two sides share
// a member, or the node is alone). Every node between ccw and cw is in
// the leaf set, so a range of identifiers lying strictly inside that arc
// is fully known.
func (n *Node) LeafReach() (ccw, cw ids.ID, whole bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l := n.leaves
	if len(l.cw) == 0 || len(l.ccw) == 0 {
		// Members join both sides at once, so one empty side means an
		// empty leaf set: the node is alone.
		return l.self, l.self, true
	}
	for _, a := range l.ccw {
		if containsID(l.cw, a.ID) {
			return l.self, l.self, true
		}
	}
	return l.ccw[len(l.ccw)-1].ID, l.cw[len(l.cw)-1].ID, false
}

// send transmits msg and reports a synchronous transport failure to
// peerFailed. Asynchronous transports report failures through the fault
// callback wired in NewNode instead; for them a non-nil error only means
// the message never left this node (transport closed). forward alone
// reads the result, to retry past a dead hop.
func (n *Node) send(to Addr, msg Message) error {
	err := n.transport.Send(to, msg)
	n.mu.Lock()
	n.stats.MessagesSent++
	n.mu.Unlock()
	if err != nil {
		n.peerFailed(to)
	}
	return err
}

// Deliver is the transport's entry point for inbound messages.
func (n *Node) Deliver(msg Message) {
	switch msg.Type {
	case msgJoin, msgJoinReply, msgStateRequest, msgStateReply:
		// The overlay's own protocol is never routed as an application
		// message (a join takes handleJoin's own forward) nor counted as
		// a delivery.
		n.handler(msg.Type)(msg)
		return
	}
	if !msg.Key.IsZero() && msg.Cover == 0 && n.forward(msg, ids.ID{}) {
		// Routed application message, forwarded: this node is not the root.
		n.mu.Lock()
		n.stats.MessagesRouted++
		n.mu.Unlock()
		return
	}
	if msg.Cover > 0 {
		// Prefix broadcast: deliver locally and re-forward deeper.
		n.forwardBroadcast(msg)
	}
	n.deliverLocal(msg)
}

func (n *Node) deliverLocal(msg Message) {
	h := n.handler(msg.Type)
	n.mu.Lock()
	n.stats.MessagesDelivered++
	n.stats.RouteHopsTotal += uint64(msg.Hops)
	n.mu.Unlock()
	if h != nil {
		h(msg)
	}
}

// handler returns the entry Handle registered for msgType, or nil.
func (n *Node) handler(msgType string) func(Message) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.handlers[msgType]
}

// SendDirect sends an application message straight to a known peer without
// overlay routing. A failed delivery reaches the OnFault callback, not the
// caller.
func (n *Node) SendDirect(to Addr, msgType string, payload Payload) {
	if to.ID == n.self.ID {
		n.Deliver(Message{Type: msgType, From: n.self, Payload: payload})
		return
	}
	n.send(to, Message{Type: msgType, From: n.self, Payload: payload})
}

// Route sends an application message toward the node whose identifier is
// numerically closest to key. The message is delivered to the handler for
// msgType at the root node (possibly this node itself). A dead first hop
// is skipped (forward), so Route only gives up by running out of
// candidates, at which point this node is the root and delivers locally.
func (n *Node) Route(key ids.ID, msgType string, payload Payload) {
	msg := Message{Type: msgType, Key: key, From: n.self, Payload: payload}
	if !n.forward(msg, ids.ID{}) {
		n.deliverLocal(msg)
	}
}
