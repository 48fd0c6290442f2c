package core

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"corona/internal/clock"
	"corona/internal/honeycomb"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/store"
	"corona/internal/webserver"
)

// Fetcher polls a channel's content server. Simulations back it with
// webserver.Origin under virtual time; live nodes use an HTTP client.
type Fetcher interface {
	// Fetch polls url. haveVersion is the validator: when the server's
	// content still matches, the result reports Modified=false and costs
	// only a probe. Version 0 forces a full fetch. The caller owns the
	// returned Body: the difference engine cuts it in place.
	Fetch(url string, haveVersion uint64) (webserver.FetchResult, error)
}

// Notifier delivers update notifications to subscribers; the IM gateway
// implements it (paper §3.5). In counting mode the node calls
// NotifyCount instead of NotifyBatch.
type Notifier interface {
	// NotifyBatch sends every listed client the same diff for a channel
	// update — one call per entry node per update, so the gateway can
	// encode the notification once and share the bytes across clients.
	// A single subscriber is a batch of one. at is the detection
	// timestamp — when the polling node first observed the version —
	// carried end to end so delivery latency is measurable. The clients
	// slice is only valid for the duration of the call; the notifier
	// must copy it if it retains the handles.
	NotifyBatch(clients []string, channelURL string, version uint64, diff string, at time.Time)
	// NotifyCount reports that count subscribers of a channel were
	// notified of version (counting mode, used at simulation scale).
	NotifyCount(channelURL string, version uint64, count int, at time.Time)
}

// DetectionSink receives update-detection events for measurement. The
// experiment harness implements it; a nil sink disables measurement.
type DetectionSink interface {
	// UpdateDetected fires when a node first learns (by its own poll)
	// that a channel moved to version. The sink deduplicates across
	// nodes: only the earliest report per (channel, version) counts.
	UpdateDetected(channelURL string, version uint64, at time.Time)
}

// subscriberSet tracks subscribers either by identity (with the entry
// node that delivers their notifications) or by count alone.
type subscriberSet struct {
	count int
	ids   map[string]pastry.Addr // client -> entry node; nil in counting mode
}

func (s *subscriberSet) add(client string, entry pastry.Addr, countOnly bool) bool {
	if countOnly {
		s.count++
		return true
	}
	if s.ids == nil {
		s.ids = make(map[string]pastry.Addr)
	}
	if prev, dup := s.ids[client]; dup {
		s.ids[client] = entry
		// A refreshed entry point is a real change: it must replicate and
		// persist, or notifications after a failover/restart chase the
		// client's previous, possibly dead, entry node.
		return prev != entry
	}
	s.ids[client] = entry
	s.count = len(s.ids)
	return true
}

func (s *subscriberSet) remove(client string, countOnly bool) bool {
	if countOnly {
		if s.count > 0 {
			s.count--
			return true
		}
		return false
	}
	if _, ok := s.ids[client]; !ok {
		return false
	}
	delete(s.ids, client)
	s.count = len(s.ids)
	return true
}

// channelState is everything one node knows about one channel. Owners
// populate the subscription and estimator fields; every polling wedge
// member tracks level and version.
type channelState struct {
	url     string
	id      ids.ID
	level   int    // current polling level of the channel (this node's belief)
	epoch   uint64 // owner's level-change counter, suppresses stale pollctl
	polling bool
	orphan  bool

	isOwner     bool // primary owner (root of the channel ID)
	isReplica   bool // one of the f additional owners
	ownerPrefix int  // prefix digits the owner shares with the channel

	// ownerEpoch fences ownership: it bumps on every ownership transition
	// (promotion, recovery, reconquest) and travels on replication and
	// owner-originated updates. Of two nodes claiming ownership, the one
	// with the higher epoch wins; ties break toward the identifier
	// numerically closer to the channel, the same total order rootship
	// uses, so both sides of a split agree on the winner without sharing
	// a ring view.
	ownerEpoch uint64

	// recoveredOwner marks state restored from the durable store whose
	// ownership claim awaits reconciliation against the live ring.
	recoveredOwner bool

	// ownerSeen is when a replica last accepted a replication push from a
	// remote owner. Owners heartbeat-replicate every maintenance round, so
	// prolonged silence means the owner is gone — the anti-entropy pass
	// then promotes this replica (if it is the root) or routes its state
	// toward the root, re-electing an owner no fault callback ever will:
	// the callback only fires on a failed send, and only promotes replicas
	// that are root at that instant, so a channel whose root-successor
	// holds no state goes quietly ownerless without this timestamp.
	ownerSeen time.Time

	subs subscriberSet

	// leases tracks, per subscriber, when the client's entry node last
	// proved liveness for it (zero time = force-expired by a peer fault).
	// Only clients that appear here are subject to lease expiry; IM and
	// simulation subscribers never heartbeat and never expire. Owner-only.
	leases map[string]time.Time

	// unsubbed tombstones recent unsubscribes: a lease heartbeat is an
	// idempotent subscription assert, and one in flight when the client
	// unsubscribes could arrive after the removal and resurrect the
	// subscriber forever (heartbeats for the channel stop, and the sweep
	// re-points entries but never deletes). Asserts for a tombstoned
	// client are ignored until the tombstone ages out. Owner-only.
	unsubbed map[string]time.Time

	// delegates is the owner-side fan-out shard set: leaf-set nodes this
	// owner recruited to disseminate updates for this hot channel, sorted
	// by identifier (the partition function depends on the order). nil
	// when the channel is below Config.DelegateThreshold. delegSeq counts
	// roster revisions within this owner's epoch: every push carries it,
	// so a push from a superseded roster (reordered in flight, or emitted
	// by a refresh that raced a fault-triggered re-partition) can never
	// overwrite a newer partition on a delegate. Owner-only.
	delegates []pastry.Addr
	delegSeq  uint64

	// ownEntries is the owner's slot of the sharded subscriber set — the
	// subset of subs.ids the owner itself fans out when delegates carry
	// the rest. nil when the channel is not sharded (the owner fans out
	// subs.ids directly).
	ownEntries map[string]pastry.Addr

	// Delegate-side state: the partition of entry records this node fans
	// out on behalf of a hot channel's owner. delegEpoch is the owner
	// epoch that installed the partition (fencing: older pushes and
	// notifies are ignored), delegAt the last refresh time — a partition
	// not refreshed within delegateExpiry maintenance rounds is dropped,
	// so a forgotten delegate cannot notify from stale records forever.
	delegSubs    map[string]pastry.Addr
	delegFrom    pastry.Addr
	delegEpoch   uint64
	delegSeqSeen uint64
	delegAt      time.Time

	sizeBytes   int
	est         intervalEstimator
	lastVersion uint64
	// content is the extracted core content of version contentVersion
	// (content mode; nil and 0 until known). contentVersion moves only
	// forward, unless a diff fails to apply and the cache is dropped, and
	// may trail lastVersion.
	content        []string
	contentVersion uint64

	pollTimer clock.Timer
}

// Stats counts a node's Corona-level activity.
type Stats struct {
	PollsIssued       uint64
	UpdatesDetected   uint64
	UpdatesReceived   uint64 // learned via dissemination
	NotificationsSent uint64
	NotifyBatchesSent uint64 // entry-node notify batches emitted (local + overlay)
	DelegateUpdates   uint64 // one-per-delegate update disseminations sent by owners
	MaintenanceRounds uint64
	LevelChanges      uint64
	LeaseRefreshes    uint64 // entry-node lease heartbeats applied at owned channels
	LeaseReroutes     uint64 // dead entry records re-pointed by the lease sweep
	OwnerClaimsRouted uint64 // anti-entropy claims routed by displaced owners
	SubscriptionsHeld int
	ChannelsOwned     int
	ChannelsPolled    int
	DelegatesHeld     int // fan-out partitions this node carries for other owners
	DelegatesActive   int // delegates recruited across this node's owned channels
}

// Node is one Corona overlay participant.
type Node struct {
	cfg     Config
	overlay *pastry.Node
	clk     clock.Clock
	fetcher Fetcher
	notify  Notifier
	sink    DetectionSink
	durable store.Sink // nil unless the node persists state (live mode)
	rng     *rand.Rand

	mu       sync.Mutex
	channels map[ids.ID]*channelState
	// clusterIn[row] holds the most recent aggregate received from each
	// row contact (keyed by column digit): that contact's summary of
	// channels owned by nodes sharing row+1 prefix digits with it.
	clusterIn []map[int]*honeycomb.ClusterSet

	maintTimer clock.Timer
	started    bool
	stopped    bool

	// notifyScratch pools the per-update fan-out target slice so hot
	// channels don't allocate O(subscribers) on every update while the
	// node lock is held (the same trick as pastry's fanOut scratch).
	notifyScratch sync.Pool

	// recentFaults remembers peers the overlay reported dead so delegate
	// recruitment stops picking them. The leaf set alone is not enough: a
	// dead node this node pruned can be gossiped right back by peers that
	// never send to it, and re-recruiting it black-holes its slice for a
	// round and races the fault-triggered re-partition. Entries age out
	// after delegateExpiry maintenance intervals — a node genuinely back
	// from the dead becomes eligible again, and one that is still dead
	// re-records itself on the next failed send.
	recentFaults map[ids.ID]time.Time

	// obsOwnerSend/obsEntryRecv are per-stage latency callbacks on the
	// notification path (SetStageObservers); nil disables them.
	obsOwnerSend func(time.Duration)
	obsEntryRecv func(time.Duration)

	stats Stats
}

// NewNode builds a Corona node over an existing overlay node. The overlay
// node must not have had Corona handlers registered before.
func NewNode(cfg Config, overlay *pastry.Node, clk clock.Clock, fetcher Fetcher, notify Notifier, sink DetectionSink) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:      cfg,
		overlay:  overlay,
		clk:      clk,
		fetcher:  fetcher,
		notify:   notify,
		sink:     sink,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(beUint64(overlay.Self().ID)))),
		channels: make(map[ids.ID]*channelState),
	}
	maxRows := overlay.Config().MaxTableRows
	n.clusterIn = make([]map[int]*honeycomb.ClusterSet, maxRows)
	n.registerHandlers()
	overlay.OnFault(n.handlePeerFault)
	return n
}

// Overlay returns the underlying overlay node.
func (n *Node) Overlay() *pastry.Node { return n.overlay }

// SetStageObservers installs per-stage latency callbacks on the
// notification hot path, each invoked with the elapsed time since the
// update's detection timestamp: ownerSend as the owner hands the update
// to dissemination, entryRecv as an entry node receives a notify batch
// for its attached clients. Either may be nil. The admin plane wires
// these into latency histograms; a node without observers pays only a
// nil check.
func (n *Node) SetStageObservers(ownerSend, entryRecv func(time.Duration)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.obsOwnerSend = ownerSend
	n.obsEntryRecv = entryRecv
}

// Self returns the node's overlay address.
func (n *Node) Self() pastry.Addr { return n.overlay.Self() }

// Stats returns a snapshot of activity counters and state sizes.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.stats
	for _, ch := range n.channels {
		if ch.isOwner {
			s.ChannelsOwned++
			s.SubscriptionsHeld += ch.subs.count
			s.DelegatesActive += len(ch.delegates)
		}
		if ch.polling {
			s.ChannelsPolled++
		}
		if ch.delegSubs != nil {
			s.DelegatesHeld++
		}
	}
	return s
}

// ChannelLevel reports the node's current belief of a channel's polling
// level and whether this node polls it (for the evaluation harness).
func (n *Node) ChannelLevel(url string) (level int, polling bool, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch, exists := n.channels[ids.HashString(url)]
	if !exists {
		return 0, false, false
	}
	return ch.level, ch.polling, true
}

// ChannelInfo is a snapshot of one channel's state at this node, for
// tests and operational introspection.
type ChannelInfo struct {
	URL         string
	Level       int
	Epoch       uint64
	OwnerEpoch  uint64
	Polling     bool
	Owner       bool
	Replica     bool
	Subscribers int
	// Delegates is the owner-side fan-out shard count (0 below the
	// delegation threshold); DelegateFor reports the partition size this
	// node fans out on another owner's behalf.
	Delegates   int
	DelegateFor int
	LastVersion uint64
}

// Channel reports this node's view of a channel, if it tracks one.
func (n *Node) Channel(url string) (ChannelInfo, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch, ok := n.channels[ids.HashString(url)]
	if !ok {
		return ChannelInfo{}, false
	}
	return ChannelInfo{
		URL:         ch.url,
		Level:       ch.level,
		Epoch:       ch.epoch,
		OwnerEpoch:  ch.ownerEpoch,
		Polling:     ch.polling,
		Owner:       ch.isOwner,
		Replica:     ch.isReplica,
		Subscribers: ch.subs.count,
		Delegates:   len(ch.delegates),
		DelegateFor: len(ch.delegSubs),
		LastVersion: ch.lastVersion,
	}, true
}

// EachPolled visits every channel this node currently polls, passing the
// URL and the node's level belief. The evaluation harness uses it to count
// pollers per channel (Figure 5).
func (n *Node) EachPolled(visit func(url string, level int)) {
	n.mu.Lock()
	type entry struct {
		url   string
		level int
	}
	polled := make([]entry, 0, len(n.channels))
	for _, ch := range n.channels {
		if ch.polling {
			polled = append(polled, entry{ch.url, ch.level})
		}
	}
	n.mu.Unlock()
	sort.Slice(polled, func(i, j int) bool { return polled[i].url < polled[j].url })
	for _, e := range polled {
		visit(e.url, e.level)
	}
}

// Start begins the periodic maintenance protocol. Polling for a channel
// begins when the node becomes its owner (via subscription) or is
// instructed by a poll-control message.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	// Desynchronize maintenance across nodes with a random initial phase,
	// like the polling protocol (paper §3.3).
	phase := time.Duration(n.rng.Int63n(int64(n.cfg.MaintenanceInterval)))
	n.maintTimer = n.clk.AfterFunc(phase, n.maintenanceTick)
}

// Stop cancels timers and halts polling; the node stops participating.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
	if n.maintTimer != nil {
		n.maintTimer.Stop()
	}
	for _, ch := range n.channels {
		if ch.pollTimer != nil {
			ch.pollTimer.Stop()
		}
		ch.polling = false
	}
}

// env builds the tradeoff environment from configuration or runtime
// estimates.
func (n *Node) env() TradeoffEnv {
	nodes := n.cfg.NodeCount
	if nodes <= 0 {
		nodes = estimateNodeCount(n.overlay.Self().ID, n.overlay.Leaves())
	}
	base := n.overlay.Base()
	return TradeoffEnv{
		Nodes:        nodes,
		Radix:        base.Radix(),
		PollInterval: n.cfg.PollInterval,
		MaxLevel:     base.MaxLevel(nodes),
	}
}

// getChannel returns existing state or creates it.
func (n *Node) getChannel(url string) *channelState {
	id := ids.HashString(url)
	if ch, ok := n.channels[id]; ok {
		return ch
	}
	ch := &channelState{url: url, id: id, level: -1}
	n.channels[id] = ch
	return ch
}
