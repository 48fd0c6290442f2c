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
	// Fetch polls url. haveVersion is the newest version the node knows
	// of, and contentVersion that of the content it holds to diff
	// against (0 when it holds none). A fetcher may revalidate:
	// HTTPFetcher sends contentVersion as If-None-Match, so content that
	// trails comes back in full, unless it makes the URL's versions up;
	// then it sends haveVersion, or the origin's opaque ETag it stands
	// for. Unchanged content reports Modified=false at the version sent
	// and costs only a probe. Version 0 forces a full
	// fetch, and OriginFetcher always fetches in full. A modified result
	// names its version: the origin's, or haveVersion+1. The caller owns
	// the returned Body until it hands it back through ReleaseBody: the
	// difference engine cuts it in place.
	Fetch(url string, haveVersion, contentVersion uint64) (webserver.FetchResult, error)
	// ReleaseBody hands back a Body that Fetch returned, once the
	// difference engine has extracted it (extraction copies what it
	// keeps) or once the poll drops it unused. The fetcher may read a
	// later poll into it, so the caller keeps no reference. A nil body
	// is a no-op.
	ReleaseBody(body []byte)
}

// Notifier delivers update notifications to subscribers, the role of the
// paper's IM gateway (§3.5); a node's client registry
// (clientproto.SessionTable) implements it.
type Notifier interface {
	// NotifyBatch sends every listed client the same diff for a channel
	// update — one call per entry node per update, so the notifier can
	// encode the notification once and share the bytes across clients.
	// A single subscriber is a batch of one. at is the detection
	// timestamp — when the polling node first observed the version —
	// carried end to end so delivery latency is measurable. The clients
	// slice is only valid for the duration of the call; the notifier
	// must copy it if it retains the handles.
	NotifyBatch(clients []string, channelURL string, version uint64, diff string, at time.Time)
}

// DetectionSink receives update-detection events for measurement. The
// experiment harness implements it; a nil sink disables measurement.
type DetectionSink interface {
	// UpdateDetected fires when a node first learns (by its own poll)
	// that a channel moved to version. The sink deduplicates across
	// nodes: only the earliest report per (channel, version) counts.
	UpdateDetected(channelURL string, version uint64, at time.Time)
}

// subscriberSet tracks subscribers by identity, with the entry node that
// delivers their notifications. sum is the set's replication digest: the
// sum of subHash over every (client, entry) record, kept current in O(1)
// by each change. count is len(ids) at owners and replicas; a wedge
// member that holds no identities keeps the owner's subscriber count Q
// from poll control there instead.
type subscriberSet struct {
	count int
	ids   map[string]pastry.Addr // client -> entry node
	sum   uint64
}

func (s *subscriberSet) add(client string, entry pastry.Addr) bool {
	if s.ids == nil {
		s.ids = make(map[string]pastry.Addr)
	}
	if prev, dup := s.ids[client]; dup {
		if prev == entry {
			return false
		}
		// A refreshed entry point is a real change: it must replicate and
		// persist, or notifications after a failover/restart chase the
		// client's previous, possibly dead, entry node.
		s.ids[client] = entry
		s.sum += subHash(client, entry) - subHash(client, prev)
		return true
	}
	s.ids[client] = entry
	s.sum += subHash(client, entry)
	s.count = len(s.ids)
	return true
}

func (s *subscriberSet) remove(client string) bool {
	entry, ok := s.ids[client]
	if !ok {
		return false
	}
	delete(s.ids, client)
	s.sum -= subHash(client, entry)
	s.count = len(s.ids)
	return true
}

// replace installs the whole identity set a full push carries.
func (s *subscriberSet) replace(subs []replicatedSub) {
	s.ids = make(map[string]pastry.Addr, len(subs))
	s.sum = 0
	for _, sub := range subs {
		if prev, dup := s.ids[sub.Client]; dup {
			s.sum -= subHash(sub.Client, prev)
		}
		s.ids[sub.Client] = sub.Entry
		s.sum += subHash(sub.Client, sub.Entry)
	}
	s.count = len(s.ids)
}

// clear drops every identity and the count.
func (s *subscriberSet) clear() {
	s.ids = nil
	s.count = 0
	s.sum = 0
}

// digest is the set's replication digest: order-independent, and
// identical across processes for identical sets.
func (s *subscriberSet) digest() uint64 { return s.sum }

// digestAfter is the digest the set would have after one add or remove,
// without applying it, so a replica can check a delta before taking it.
func (s *subscriberSet) digestAfter(client string, entry pastry.Addr, remove bool) uint64 {
	sum := s.sum
	if prev, ok := s.ids[client]; ok {
		sum -= subHash(client, prev)
	}
	if !remove {
		sum += subHash(client, entry)
	}
	return sum
}

// subHash is 64-bit FNV-1a over one subscriber record: the client, a
// zero byte, the entry identifier and the entry endpoint. It is fixed,
// not seeded per process, so owner and replica digests compare.
func subHash(client string, entry pastry.Addr) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(client); i++ {
		h = (h ^ uint64(client[i])) * prime
	}
	h *= prime // the zero separator byte
	for _, b := range entry.ID {
		h = (h ^ uint64(b)) * prime
	}
	for i := 0; i < len(entry.Endpoint); i++ {
		h = (h ^ uint64(entry.Endpoint[i])) * prime
	}
	return h
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

	// ownerSeen is when a replica last heard a remote owner: an applied
	// delta, a heartbeat entry that matched its state, or a full push
	// from a node holding the owner role. Owners heartbeat every
	// maintenance round, so prolonged silence means the owner is gone —
	// the anti-entropy pass then promotes this replica (if it is the
	// root) or routes its state toward the root, re-electing an owner no
	// fault callback ever will: the callback only fires on a failed send,
	// and only promotes replicas that are root at that instant, so a
	// channel whose root-successor holds no state goes quietly ownerless
	// without this timestamp.
	ownerSeen time.Time

	// replSeq orders replication within one owner epoch. An owner bumps
	// it on every subscriber change and stamps it on the delta; a replica
	// holds the Seq of the owner state it mirrors and applies only the
	// delta numbered replSeq+1. resyncAsked marks a replica that asked
	// its owner for a full push after a gap and awaits it, so the deltas
	// still in flight behind the gap do not each ask again.
	replSeq     uint64
	resyncAsked bool

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
	// (nil and 0 until a fetched body or an applied diff supplies it).
	// contentVersion moves only forward, unless a diff fails to apply and
	// the cache is dropped. It trails lastVersion when a replicate push,
	// heartbeat, delegate notify, restart or an update whose diff did not
	// apply raised lastVersion alone, and then only until the channel's
	// next poll: where the origin names its versions, that poll
	// revalidates against contentVersion and stores the body it gets
	// back (pollChannel).
	content        []string
	contentVersion uint64

	// pollTimer is the poll loop's one timer, made on the channel's first
	// poll and re-armed (Reset) for every later one, so rescheduling
	// allocates nothing.
	pollTimer clock.Timer
	// The poll slot (see polling.go): the offset within the poll interval
	// this node polls at, its rank among the channel's pollers (-1 when
	// it places itself by identifier instead), and the poller count,
	// computed at level slotLevel against ring view slotSeq.
	slotPhase   time.Duration
	slotRank    int
	slotPollers int
	slotLevel   int
	slotSeq     uint64
}

// Stats counts a node's Corona-level activity.
type Stats struct {
	PollsIssued     uint64
	PollErrors      uint64 // polls whose fetch failed: unreachable, timed out, error status, oversized
	UpdatesDetected uint64
	UpdatesReceived uint64 // learned via dissemination
	// DiffBaseMismatches counts disseminated diffs to a newer version
	// whose base was not the content this node held, so they could not
	// be applied.
	DiffBaseMismatches uint64
	NotificationsSent  uint64
	NotifyBatchesSent  uint64 // entry-node notify batches emitted (local + overlay)
	DelegateUpdates    uint64 // one-per-delegate update disseminations sent by owners
	MaintenanceRounds  uint64
	LevelChanges       uint64
	LeaseRefreshes     uint64 // entry-node lease heartbeats applied at owned channels
	LeaseReroutes      uint64 // dead entry records re-pointed by the lease sweep
	OwnerClaimsRouted  uint64 // anti-entropy claims routed by displaced owners
	SubscriptionsHeld  int    // subscribers of the channels this node owns, summed over them
	ChannelsOwned      int
	ChannelsPolled     int
	DelegatesHeld      int // fan-out partitions this node carries for other owners
	DelegatesActive    int // delegates recruited across this node's owned channels
	Replication        ReplicationStats
}

// ReplicationStats counts the replication messages a node sends, one per
// destination.
type ReplicationStats struct {
	FullPushes uint64 // whole-state pushes: promotions, claims, counter-pushes and resync answers
	Deltas     uint64 // one-subscriber changes sent by owners
	Heartbeats uint64 // per-round digest heartbeats sent by owners
	Resyncs    uint64 // full-push requests sent by replicas on a gap or a mismatch
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
	// ring is the cached routing-state view poll slots are ranked
	// against (ringViewLocked).
	ring ringView

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

	// replOut queues replication sends in the order they were built under
	// mu; flushReplication drains it from one goroutine at a time, so the
	// deltas of one channel leave this node in Seq order even when
	// handlers run concurrently. replFlushing marks an active drain and
	// replSpare recycles the drained slice.
	replOut      []replSend
	replSpare    []replSend
	replFlushing bool

	// obsOwnerSend/obsEntryRecv are per-stage latency callbacks on the
	// notification path (Seams.OwnerSend, Seams.EntryRecv); nil disables
	// them. Like notify, they are set at assembly and never change, so
	// they are read without mu.
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
	n.clusterIn = make([]map[int]*honeycomb.ClusterSet, pastry.MaxTableRows)
	n.registerHandlers()
	overlay.OnFault(n.handlePeerFault)
	return n
}

// Overlay returns the underlying overlay node.
func (n *Node) Overlay() *pastry.Node { return n.overlay }

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
	// LastVersion is the newest version this node knows of, and
	// ContentVersion that of the content it holds to diff against. Where
	// the origin names its versions, the content trails only until the
	// channel's next poll.
	LastVersion    uint64
	ContentVersion uint64
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
		URL:            ch.url,
		Level:          ch.level,
		Epoch:          ch.epoch,
		OwnerEpoch:     ch.ownerEpoch,
		Polling:        ch.polling,
		Owner:          ch.isOwner,
		Replica:        ch.isReplica,
		Subscribers:    ch.subs.count,
		Delegates:      len(ch.delegates),
		DelegateFor:    len(ch.delegSubs),
		LastVersion:    ch.lastVersion,
		ContentVersion: ch.contentVersion,
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
	// Desynchronize maintenance across nodes with a random initial phase
	// (paper §3.3's random wait; polls use slots instead, polling.go).
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
	return TradeoffEnv{
		Nodes:        nodes,
		PollInterval: n.cfg.PollInterval,
		MaxLevel:     ids.MaxLevel(nodes),
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
