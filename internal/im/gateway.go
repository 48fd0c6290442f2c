// Package im is the notification router between a Corona node and its
// client edges. It descends from the prototype's IM front end (paper
// §3.5, §4), where users added Corona as a buddy and a centralized
// gateway relayed their subscriptions and paced their updates; what
// remains is the node-side half. The Gateway implements the node's
// Notifier: every client session of every edge — binary, line (the IM
// protocol, internal/clientproto), WebSocket and SSE — attaches a
// Deliverer for its handle, and each notification batch goes to the
// attached deliverers and the edges' update tap, and is counted.
package im

import (
	"fmt"
	"sync"
	"time"

	"corona/internal/clock"
)

// Notification is one structured update notification: what the node
// detected, addressed to one subscriber. Each edge encodes it in its own
// framing: a binary frame, a JSON event, or the line protocol's text.
type Notification struct {
	// Client is the subscriber handle the notification is addressed to.
	Client string
	// Channel is the subscribed URL.
	Channel string
	// Version is the content version detected.
	Version uint64
	// Diff is the delta-encoded change (see internal/diffengine).
	Diff string
	// At is the update's detection timestamp when the notifying node
	// carried one, else the gateway-side emission time — either way the
	// best anchor the delivery layer has for end-to-end latency.
	At time.Time
	// Shared is the per-batch cell a delivery layer uses to encode the
	// notification once and reuse the result for every
	// client in the batch (the encoded body excludes Client, so the bytes
	// are identical). Deliverers for the same batch run sequentially on
	// one goroutine, so the cell needs no locking — but for exactly that
	// reason a Deliverer must only touch the cell (and the Notification's
	// Shared pointer) synchronously, before it returns: a deliverer that
	// hands the cell to another goroutine races the next deliverer's
	// Store. TestNotifyBatchAttachDetachRace pins the contract.
	Shared *Shared
}

// Shared is the batch-scoped encode-once cell. With several edges
// attached to the same node, one batch can have more than one delivery
// layer encoding it (a wire frame, a JSON event, a line of text), so the
// cell holds one slot per consumer, keyed by a pointer each consumer
// owns; a slot is appended the first time its consumer stores.
// The gateway only allocates the cell; deliverers for one batch run
// sequentially, so Load/Store need no locking.
type Shared struct {
	slots []sharedSlot
}

type sharedSlot struct {
	key, val any
}

// Load returns the value the batch's earlier deliverers stored under
// key, nil if none did.
func (s *Shared) Load(key any) any {
	for _, sl := range s.slots {
		if sl.key == key {
			return sl.val
		}
	}
	return nil
}

// Store saves val under key for the batch's later deliverers.
func (s *Shared) Store(key, val any) {
	for i := range s.slots {
		if s.slots[i].key == key {
			s.slots[i].val = val
			return
		}
	}
	s.slots = append(s.slots, sharedSlot{key: key, val: val})
}

// LegacyBody renders the notification as the prototype's IM message text
// ("UPDATE <url> v<version>" followed by the diff), the wire form the
// line protocol has always carried.
func (n Notification) LegacyBody() string {
	return fmt.Sprintf("UPDATE %s v%d\n%s", n.Channel, n.Version, n.Diff)
}

// Deliverer consumes structured notifications for one attached client.
type Deliverer func(Notification)

// Gateway routes each notification batch to the deliverers attached for
// its clients. A client with no attached deliverer has no live session
// on this node — it quit, or failed over to another node whose lease
// refresh re-points its subscriptions — and its notification is counted
// as undeliverable.
type Gateway struct {
	clk clock.Clock

	mu            sync.Mutex
	attached      map[string]*attachment
	undeliverable uint64 // notifications for a client with no deliverer
	notifyBatches uint64 // NotifyBatch calls received
	batchClients  uint64 // clients covered by those batches

	// tap, when set, observes every channel update flowing through the
	// gateway — once per NotifyBatch call, before any deliverer
	// runs (same goroutine), so a consumer recording updates (the web
	// gateway's replay rings) is guaranteed to hold an update before any
	// per-client delivery of it can be observed or suppressed.
	tap Tap
}

// Tap observes one channel update passing through the gateway.
type Tap func(channel string, version uint64, diff string, at time.Time)

// attachment is one registered structured deliverer; the pointer's
// identity lets Detach remove only its own registration after a
// replacement.
type attachment struct {
	deliver Deliverer
}

// NewGateway returns a gateway with no attached clients; clk stamps
// notifications that carry no detection time.
func NewGateway(clk clock.Clock) *Gateway {
	return &Gateway{clk: clk, attached: make(map[string]*attachment)}
}

// SetTap installs the gateway's update tap (nil clears it). The tap runs
// once per notification call, on the delivering goroutine, before the
// call's deliverers; it must not block.
func (g *Gateway) SetTap(tap Tap) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tap = tap
}

// Attach registers a structured deliverer for client, replacing any
// previous one (a reconnecting client displaces its stale registration).
// The returned detach func removes the registration — but only if it has
// not already been replaced by a newer Attach, so a slow-dying old
// connection cannot detach its successor.
func (g *Gateway) Attach(client string, deliver Deliverer) (detach func()) {
	a := &attachment{deliver: deliver}
	g.mu.Lock()
	g.attached[client] = a
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		if g.attached[client] == a {
			delete(g.attached, client)
		}
		g.mu.Unlock()
	}
}

// Attached reports whether client currently has a structured deliverer.
func (g *Gateway) Attached(client string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.attached[client]
	return ok
}

// NotifyBatch implements the Corona node's Notifier: every listed client
// receives the same update, through its attached deliverer; a client
// with none is counted as undeliverable. The recipients share one
// Notification value carrying one Shared cell, so each edge encodes the
// update once and hands the same bytes to every session.
func (g *Gateway) NotifyBatch(clients []string, channelURL string, version uint64, diff string, at time.Time) {
	if len(clients) == 0 {
		return
	}
	if at.IsZero() {
		at = g.clk.Now()
	}
	n := Notification{
		Channel: channelURL,
		Version: version,
		Diff:    diff,
		At:      at,
		Shared:  &Shared{},
	}
	g.mu.Lock()
	tap := g.tap
	g.mu.Unlock()
	if tap != nil {
		// Once per batch, before any deliverer (and before the
		// attachment check): a notification for a detached client must
		// still reach the tap's replay rings, or the client could never
		// fetch what it missed.
		tap(channelURL, version, diff, at)
	}
	// Attached recipients, collected under the lock and delivered outside
	// it; the inline array keeps small batches off the heap.
	type recipient struct {
		client  string
		deliver Deliverer
	}
	var inline [8]recipient
	attached := inline[:0]
	g.mu.Lock()
	g.notifyBatches++
	g.batchClients += uint64(len(clients))
	for _, c := range clients {
		if a, ok := g.attached[c]; ok {
			attached = append(attached, recipient{c, a.deliver})
		} else {
			g.undeliverable++
		}
	}
	g.mu.Unlock()
	// Deliver outside the lock, sequentially: the first deliverer fills
	// the Shared cell, the rest reuse it.
	for _, r := range attached {
		n.Client = r.client
		r.deliver(n)
	}
}

// NotifyCount implements the Notifier's counting mode, which live nodes
// never run (they track clients), so it does nothing.
func (g *Gateway) NotifyCount(channelURL string, version uint64, count int, at time.Time) {}

// Counters is one coherent snapshot of the gateway's delivery counters.
type Counters struct {
	Undeliverable uint64
	NotifyBatches uint64
	BatchClients  uint64
}

// CounterSnapshot reads every delivery counter under one lock
// acquisition, so callers assembling stats (the admin plane's /metrics,
// ServerInfo) never publish a torn view — Undeliverable from before a
// batch landed next to BatchClients from after it.
func (g *Gateway) CounterSnapshot() Counters {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Counters{
		Undeliverable: g.undeliverable,
		NotifyBatches: g.notifyBatches,
		BatchClients:  g.batchClients,
	}
}
