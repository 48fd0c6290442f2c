package im

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"corona/internal/clock"
)

// Subscriber is the Corona-node surface the gateway drives: subscription
// requests parsed from instant messages are forwarded here.
type Subscriber interface {
	// Subscribe registers a client's interest in a channel URL.
	Subscribe(client, url string) error
	// Unsubscribe removes it.
	Unsubscribe(client, url string) error
}

// Notification is one structured update notification: what the node
// detected, addressed to one subscriber. The client protocol server
// delivers it as a typed frame; the legacy IM path renders it to text.
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

// Shared is the batch-scoped encode-once cell. With the binary client
// protocol and the web gateway attached to the same node, one batch can
// have more than one delivery layer encoding it (a wire frame and a JSON
// event), so the cell holds one slot per consumer, keyed by a pointer
// each consumer owns. Two slots cover every deployed shape; more append.
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

// Gateway is the intermediary between clients and Corona nodes — the
// prototype's centralized stop-gap for the single-login constraint (§4),
// generalized: it owns the "corona" buddy handle on the IM service and,
// for clients attached through the binary client protocol, delivers
// structured notifications directly.
//
// Delivery is two-tier. A client with an attached Deliverer (the client
// protocol server registers one per connection) receives the structured
// Notification immediately — typed frames need no IM-era pacing. Every
// other client gets the legacy path: the notification is rendered to IM
// text and sent through the pacing queue, which spaces outgoing messages
// so updates are not sent in bursts ("Corona's implementation limits the
// rate of updates sent to clients and avoids sending updates in bursts",
// §4).
type Gateway struct {
	service *Service
	clk     clock.Clock
	handle  string
	node    Subscriber

	mu       sync.Mutex
	attached map[string]*attachment
	queue    []queued
	draining bool
	// paceInterval is the gap enforced between outgoing legacy
	// notifications.
	paceInterval time.Duration

	notifyCounts  map[string]uint64 // url -> clients notified (counting mode)
	undeliverable uint64            // notifications with no deliverer and no IM account
	notifyBatches uint64            // NotifyBatch calls received
	batchClients  uint64            // clients covered by those batches

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

// queued is one pending outgoing legacy notification.
type queued struct {
	to   string
	body string
}

// NewGateway registers the gateway's buddy handle on the service and
// connects it to a Corona node.
func NewGateway(service *Service, clk clock.Clock, handle string, node Subscriber) *Gateway {
	g := &Gateway{
		service:      service,
		clk:          clk,
		handle:       handle,
		node:         node,
		attached:     make(map[string]*attachment),
		paceInterval: 20 * time.Millisecond,
		notifyCounts: make(map[string]uint64),
	}
	service.Register(handle)
	service.Login(handle, g.handleInbound)
	return g
}

// SetPaceInterval adjusts the outgoing legacy-notification spacing.
func (g *Gateway) SetPaceInterval(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if d > 0 {
		g.paceInterval = d
	}
}

// Handle returns the gateway's buddy handle.
func (g *Gateway) Handle() string { return g.handle }

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
// Notifications for the client bypass the IM text path while attached.
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

// handleInbound parses user commands: "subscribe <url>" and
// "unsubscribe <url>" (§3.5).
func (g *Gateway) handleInbound(m Message) {
	fields := strings.Fields(strings.TrimSpace(m.Body))
	if len(fields) != 2 {
		g.reply(m.From, "error: expected 'subscribe <url>' or 'unsubscribe <url>'")
		return
	}
	cmd, url := strings.ToLower(fields[0]), fields[1]
	var err error
	switch cmd {
	case "subscribe":
		err = g.node.Subscribe(m.From, url)
		if err == nil {
			g.reply(m.From, "subscribed "+url)
		}
	case "unsubscribe":
		err = g.node.Unsubscribe(m.From, url)
		if err == nil {
			g.reply(m.From, "unsubscribed "+url)
		}
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		g.reply(m.From, "error: "+err.Error())
	}
}

// reply sends a control response immediately (not paced — these are
// two-way conversation, which IM systems already optimize, §3.5).
func (g *Gateway) reply(to, body string) {
	g.service.Send(g.handle, to, body)
}

// NotifyBatch implements the Corona node's Notifier: every listed client
// receives the same update. An attached client gets the structured
// notification immediately; everyone else gets the legacy IM rendering
// through the pacing queue. Attached clients share one Notification value
// carrying one Shared cell, so the client-protocol server encodes the
// frame once and hands the same bytes to every connection; the legacy
// text body is likewise rendered once for the whole batch.
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
	legacyBody := ""
	start := false
	g.mu.Lock()
	g.notifyCounts[channelURL] += uint64(len(clients))
	g.notifyBatches++
	g.batchClients += uint64(len(clients))
	for _, c := range clients {
		if a, ok := g.attached[c]; ok {
			attached = append(attached, recipient{c, a.deliver})
			continue
		}
		if legacyBody == "" {
			legacyBody = n.LegacyBody()
		}
		g.queue = append(g.queue, queued{to: c, body: legacyBody})
		if !g.draining {
			g.draining = true
			start = true
		}
	}
	g.mu.Unlock()
	// Deliver outside the lock, sequentially: the first deliverer fills
	// the Shared cell, the rest reuse it.
	for _, r := range attached {
		n.Client = r.client
		r.deliver(n)
	}
	if start {
		g.drainOne()
	}
}

// NotifyCount implements counting-mode notification accounting.
func (g *Gateway) NotifyCount(channelURL string, version uint64, count int, at time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.notifyCounts[channelURL] += uint64(count)
}

// drainOne sends the head of the queue and schedules the next send after
// the pacing interval.
func (g *Gateway) drainOne() {
	g.mu.Lock()
	if len(g.queue) == 0 {
		g.draining = false
		g.mu.Unlock()
		return
	}
	head := g.queue[0]
	g.queue = g.queue[1:]
	g.mu.Unlock()

	err := g.service.Send(g.handle, head.to, head.body)
	if err == ErrRateLimited {
		// Re-queue at the tail and back off a full window.
		g.mu.Lock()
		g.queue = append(g.queue, head)
		g.mu.Unlock()
		g.clk.AfterFunc(time.Minute, g.drainOne)
		return
	}
	if err == ErrUnknownUser {
		// No deliverer and no IM account: the client left this node (a
		// protocol client that failed over elsewhere); its replayed
		// subscription redirects future notifications.
		g.mu.Lock()
		g.undeliverable++
		g.mu.Unlock()
	}
	g.clk.AfterFunc(g.paceInterval, g.drainOne)
}

// Notified returns how many client notifications were issued for a URL.
func (g *Gateway) Notified(url string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.notifyCounts[url]
}

// Counters is one coherent snapshot of the gateway's delivery counters.
type Counters struct {
	Undeliverable uint64
	NotifyBatches uint64
	BatchClients  uint64
	QueueDepth    int
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
		QueueDepth:    len(g.queue),
	}
}

// Undeliverable returns how many notifications found neither an attached
// deliverer nor an IM account for their client.
func (g *Gateway) Undeliverable() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.undeliverable
}

// NotifyBatches returns how many batched notification calls the gateway
// has received and how many client deliveries they covered.
func (g *Gateway) NotifyBatches() (batches, clients uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.notifyBatches, g.batchClients
}

// QueueDepth returns the number of legacy notifications awaiting pacing.
func (g *Gateway) QueueDepth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue)
}
