package core

import (
	"sort"
	"time"

	"corona/internal/ids"
	"corona/internal/pastry"
)

// Subscribe registers a client's interest in a channel URL. The request is
// routed through the overlay to the channel's primary owner, which may be
// this node itself (paper §3.3, §3.5). A non-nil error means the request
// never left this node; under asynchronous transports (netwire) delivery
// failures surface later as overlay repair, and the subscription is
// retried by the client layer.
func (n *Node) Subscribe(client, url string) error {
	return n.overlay.Route(ids.HashString(url), msgSubscribe, &subscribeMsg{URL: url, Client: client, Entry: n.Self()})
}

// Unsubscribe removes a client's interest in a channel.
func (n *Node) Unsubscribe(client, url string) error {
	return n.overlay.Route(ids.HashString(url), msgSubscribe, &subscribeMsg{URL: url, Client: client, Entry: n.Self(), Remove: true})
}

// handleSubscribe runs at the channel's primary owner.
func (n *Node) handleSubscribe(msg pastry.Message) {
	p, ok := msg.Payload.(*subscribeMsg)
	if !ok {
		return
	}
	n.mu.Lock()
	ch := n.getChannel(p.URL)
	changed := false
	if p.Remove {
		changed = ch.subs.remove(p.Client)
		delete(ch.leases, p.Client)
		// Tombstone even when the remove was a no-op: an owner that lost
		// its subscriber set (in-memory restart, stateless promotion)
		// still must not let an in-flight lease heartbeat resurrect the
		// client after this unsubscribe.
		n.tombstoneLocked(ch, p.Client)
	} else {
		changed = ch.subs.add(p.Client, p.Entry)
		delete(ch.unsubbed, p.Client) // an explicit subscribe overrides the tombstone
	}
	wasOwner := ch.isOwner
	n.becomeOwnerLocked(ch)
	if _, leased := ch.leases[p.Client]; leased && ch.isOwner && !p.Remove && msg.From.ID == p.Entry.ID {
		// A subscribe sent by the entry node it names proves that entry
		// alive, as a lease refresh does: without this, an expiry mark
		// left when the client's old entry died would have the next sweep
		// re-point a client that just re-subscribed through a live node.
		ch.leases[p.Client] = n.now()
	}
	var push *delegatePush
	if changed {
		n.emitSubLocked(ch, p.Client, p.Entry, p.Remove)
		push = n.shardEntryChangedLocked(ch, p.Client, p.Entry, p.Remove)
	}
	n.replicateSubLocked(ch, wasOwner, changed, p.Client, p.Entry, p.Remove)
	n.mu.Unlock()
	if push != nil {
		n.overlay.SendDirect(push.to, msgDelegate, push.msg)
	}
	n.flushReplication()
}

// becomeOwnerLocked promotes this node to primary owner of the channel if
// it is the overlay root for the channel's identifier, starting owner-side
// polling at the base level K (§3.3: "Initially, only the owner nodes at
// level K = ceil(log N) poll for the channels").
func (n *Node) becomeOwnerLocked(ch *channelState) {
	if !n.overlay.IsRoot(ch.id) {
		return
	}
	if ch.isOwner {
		return
	}
	ch.isOwner = true
	// An owner fans out from its authoritative subscriber set; any
	// partition this node carried as someone else's delegate is
	// superseded by the promotion.
	ch.delegSubs = nil
	ch.delegFrom = pastry.Addr{}
	// Every ownership transition advances the fencing epoch, so a
	// promotion (peer fault), a recovery (ReconcileRecovered proposes
	// recoveredEpoch+1), and a reconquest (the root taking the channel
	// back from an interim owner) all outrank the claim they supersede.
	ch.ownerEpoch++
	n.emitOwnerEpochLocked(ch)
	env := n.env()
	if ch.level < 0 {
		ch.level = env.MaxLevel
	}
	if ch.sizeBytes == 0 {
		ch.sizeBytes = 4096
	}
	// Orphan classification (§4): a channel is an orphan when its
	// level-(K-1) wedge cannot be reached — no node carries enough
	// matching prefix digits. Orphans stay pinned at owner-only polling;
	// their tradeoff factors flow into the slack cluster that corrects
	// the optimization target before solving.
	ch.ownerPrefix = ids.CommonPrefix(n.Self().ID, ch.id)
	ch.orphan = !n.wedgeReachable(ch.id, env.MaxLevel-1)
	n.startPollingLocked(ch)
	n.emitMetaLocked(ch, false)
}

// buildReplicateLocked snapshots the channel's owner state as a full
// push (an ownership claim at the current owner epoch). Callers hold
// n.mu.
func (n *Node) buildReplicateLocked(ch *channelState) *replicateMsg {
	rep := &replicateMsg{
		URL:         ch.url,
		Seq:         ch.replSeq,
		Count:       ch.subs.count,
		SizeBytes:   ch.sizeBytes,
		IntervalSec: ch.est.interval().Seconds(),
		LastVersion: ch.lastVersion,
		Level:       ch.level,
		Epoch:       ch.epoch,
		OwnerEpoch:  ch.ownerEpoch,
		FromOwner:   ch.isOwner,
	}
	for c, entry := range ch.subs.ids {
		rep.Subscribers = append(rep.Subscribers, replicatedSub{Client: c, Entry: entry})
	}
	// Replication payload bytes must be a pure function of the
	// subscriber set, not of map iteration order.
	sort.Slice(rep.Subscribers, func(i, j int) bool { return rep.Subscribers[i].Client < rep.Subscribers[j].Client })
	return rep
}

// ownerReplicaStale is how many maintenance rounds of owner silence — no
// applied delta, matching heartbeat or full push — a replica tolerates
// before treating its owner as gone. Owners heartbeat every round, so
// three missed rounds is an owner that died, demoted without reaching
// us, or lost us from its neighbor set.
const ownerReplicaStale = 3

// ownerAntiEntropy is the owner side of the maintenance round's
// replication and the replica side's re-election. The epoch-fencing
// handshake rides on full pushes and update broadcasts, and a quiescent
// channel sends neither — so after a healed partition, two owners could
// keep answering polls forever without exchanging claims. Each round:
//
//   - An owner that is no longer the overlay root of a channel routes its
//     claim (a full push) toward the current root, where the ordinary
//     handleReplicate handshake runs: the losing epoch demotes and hands
//     off its subscribers, the root reconquers above the winner. Dual
//     ownership collapses within one round of the ring views re-merging.
//
//   - An owner that IS the root lists the channel in its heartbeat: one
//     replBeatMsg per neighbor carrying every such channel's epoch, Seq,
//     digest and scalars, chunked at replBeatCap entries. A replica whose
//     state matches refreshes its owner-liveness clock; any mismatch —
//     another epoch, Seq or digest, a neighbor not yet a replica, or one
//     that is itself an owner or the root — asks for a full push, so the
//     claim handshake above still runs, one round trip later.
//
//   - A replica that has heard no owner for ownerReplicaStale rounds
//     re-elects: it promotes itself if it is now the root, or routes its
//     state toward the root so the root adopts and reconquers. This is
//     the only path that revives a channel whose owner died while the
//     root-successor held no replica — the fault callback promotes
//     replicas only if they are root at the instant the failure
//     surfaces, and a root with no state never notices.
//
// At steady state the owner is the root and every replica matches, so a
// round costs ⌈owned/replBeatCap⌉ heartbeats per neighbor and nothing
// else.
func (n *Node) ownerAntiEntropy() {
	type claim struct {
		id  ids.ID
		rep *replicateMsg
	}
	var claims []claim
	var beat []replBeatEntry
	staleAfter := ownerReplicaStale * n.cfg.MaintenanceInterval
	now := n.now()
	n.mu.Lock()
	// Iterate channels in a fixed order: claim and heartbeat sends mutate
	// peers' routing state and aggregation inputs, so map-order iteration
	// would make whole-run wire traffic nondeterministic under one seed.
	ordered := make([]*channelState, 0, len(n.channels))
	for _, ch := range n.channels {
		ordered = append(ordered, ch)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].url < ordered[j].url })
	for _, ch := range ordered {
		switch {
		case ch.isOwner && !n.overlay.IsRoot(ch.id):
			claims = append(claims, claim{ch.id, n.buildReplicateLocked(ch)})
		case ch.isOwner:
			beat = append(beat, n.beatEntryLocked(ch))
		case ch.isReplica && now.Sub(ch.ownerSeen) > staleAfter:
			if n.overlay.IsRoot(ch.id) {
				n.becomeOwnerLocked(ch)
				n.pushFullLocked(ch)
			} else {
				// Claim every round while stale: early routes can die at
				// hops whose tables still point at the dead owner (each
				// failed forward evicts one stale hop, losing the message).
				// Whatever ends the staleness — the new owner's heartbeat,
				// a reconquest push, or a live owner's counter-push to a
				// rejected claim — refreshes ownerSeen and stops the claims.
				claims = append(claims, claim{ch.id, n.buildReplicateLocked(ch)})
			}
		}
	}
	n.queueHeartbeatsLocked(beat)
	if len(claims) > 0 {
		n.stats.OwnerClaimsRouted += uint64(len(claims))
		n.stats.Replication.FullPushes += uint64(len(claims))
	}
	n.mu.Unlock()
	for _, c := range claims {
		n.overlay.Route(c.id, msgReplicate, c.rep)
	}
	n.flushReplication()
}

// claimWinsLocked decides an ownership claim at claimEpoch from claimant
// against this node's view of the channel. Higher epoch wins outright;
// equal epochs between two live owners break toward the identifier
// numerically closer to the channel — the same metric rootship uses, and
// one both sides compute identically from the message alone, so the
// handshake converges even while their ring views still disagree. The
// tie-break is reserved for claimants that hold the owner role: a
// replica's anti-entropy push at the live owner's epoch always loses
// (the counter-push refreshes the replica instead), or any replica whose
// identifier sits closer to the channel than the owner's would demote it
// on every stale heartbeat. Callers hold n.mu.
func (n *Node) claimWinsLocked(ch *channelState, claimEpoch uint64, claimant pastry.Addr, claimantIsOwner bool) bool {
	if claimEpoch != ch.ownerEpoch {
		return claimEpoch > ch.ownerEpoch
	}
	if !ch.isOwner {
		return true // ordinary periodic push at the claim's epoch
	}
	if !claimantIsOwner {
		return false
	}
	return claimant.ID.Distance(ch.id).Cmp(n.Self().ID.Distance(ch.id)) < 0
}

// demoteLocked is the single ownership-surrender path: it clears the
// owner flag, the replica flag unless the caller is adopting a fresher
// replica image, the subscriber identity map when leaving the replica
// set (stale identities must not resurrect on a later promotion — the
// same rule the emptied-channel replicate push enforces), and the lease
// table (leases are owner-side state). Polling stops unless the node
// still belongs to the channel's wedge at its current level. Callers
// hold n.mu.
func (n *Node) demoteLocked(ch *channelState, toReplica bool) {
	ch.isOwner = false
	ch.isReplica = toReplica
	ch.leases = nil
	ch.unsubbed = nil
	// The delegate roster is owner-side state. The winning owner recruits
	// its own; this node's former delegates expire their partitions when
	// the refreshes stop (delegateExpiry).
	if len(ch.delegates) > 0 {
		ch.delegates = nil
		n.emitDelegatesLocked(ch)
	}
	ch.ownEntries = nil
	if !toReplica {
		ch.subs.clear()
	}
	if ch.polling && !ids.InWedge(n.Self().ID, ch.id, max(ch.level, 0)) {
		n.stopPollingLocked(ch)
	}
}

// handoffMissingLocked lists this node's subscriber identities absent
// from a winning claim's pushed set. A demoting interim owner re-injects
// them through the ordinary subscribe path so a client that subscribed
// during the outage survives the merge. Callers hold n.mu.
func handoffMissingLocked(ch *channelState, pushed []replicatedSub) []replicatedSub {
	if len(ch.subs.ids) == 0 {
		return nil
	}
	known := make(map[string]struct{}, len(pushed))
	for _, s := range pushed {
		known[s.Client] = struct{}{}
	}
	var missing []replicatedSub
	for c, entry := range ch.subs.ids {
		if _, ok := known[c]; !ok {
			missing = append(missing, replicatedSub{Client: c, Entry: entry})
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].Client < missing[j].Client })
	return missing
}

// handleReplicate stores replica state at a backup owner. Every push is
// also an ownership claim fenced by the owner epoch: the loser of the
// comparison demotes on receipt — no waiting for an IsRoot self-check —
// and a stale claimant is answered with a counter-push carrying the
// winning state so it demotes symmetrically.
func (n *Node) handleReplicate(msg pastry.Message) {
	p, ok := msg.Payload.(*replicateMsg)
	if !ok {
		return
	}
	// The push proves the sender is alive; fold it into routing state so
	// IsRoot converges (the reconquest check below depends on it).
	if msg.From.ID != n.Self().ID {
		n.overlay.Learn(msg.From)
	}
	n.mu.Lock()
	ch := n.getChannel(p.URL)
	if !n.claimWinsLocked(ch, p.OwnerEpoch, msg.From, p.FromOwner) &&
		(ch.isOwner || ch.isReplica) {
		// Stale-epoch push: reject on receipt. If we are the live owner,
		// answer with our own state so the stale claimant demotes now
		// instead of answering polls until its next self-check. A REPLICA
		// holding a higher epoch answers too: a promoted owner whose
		// epoch fell behind (it missed the previous owner's last bumps)
		// would otherwise be rejected here forever and this replica's
		// copy would go permanently stale — the counter-push teaches the
		// claimant the higher epoch, and it reconquers above it.
		//
		// Only owners and replicas get to reject, because only they can
		// counter-push real state. A bystander's ownerEpoch is hearsay
		// from update broadcasts: if the owner group behind that epoch
		// died, a rejection here would silently strand the last surviving
		// replica — its claims bounce off the hearsay forever, nothing
		// teaches it the higher epoch, and the channel stays ownerless.
		// Accepting instead is safe: should the hearsay owner still be
		// alive, its next push or update claim outranks whatever this
		// adoption produced and the fencing handshake re-converges.
		counter := n.buildReplicateLocked(ch)
		self := msg.From.ID == n.Self().ID
		if !self {
			n.stats.Replication.FullPushes++
		}
		n.mu.Unlock()
		if !self {
			n.overlay.SendDirect(msg.From, msgReplicate, counter)
		}
		return
	}
	var handoff []replicatedSub
	if ch.isOwner {
		// Epoch loss: another owner with a winning claim is live. Demote
		// immediately, handing any subscribers it does not know about
		// back through the subscribe path before the identity map goes.
		handoff = handoffMissingLocked(ch, p.Subscribers)
		n.demoteLocked(ch, true)
	}
	ch.isReplica = true
	ch.ownerEpoch = p.OwnerEpoch
	if p.FromOwner && msg.From.ID != n.Self().ID {
		// Only a push from a node actually holding the owner role proves
		// the owner is alive. Peer replicas' anti-entropy claims carry
		// state but no such proof — counting them would let a ring of
		// ownerless replicas refresh each other's staleness clocks
		// forever, each claiming just often enough that no receiver ever
		// deems the owner dead, and no one re-elects.
		ch.ownerSeen = n.now()
	}
	ch.replSeq = p.Seq
	ch.resyncAsked = false
	if p.Subscribers != nil && !sameSubscribers(ch.subs.ids, p.Subscribers) {
		ch.subs.replace(p.Subscribers)
	} else if p.Subscribers == nil && p.Count == 0 {
		// An emptied channel replicates with no subscriber list; drop any
		// stale identities so a later promotion cannot resurrect clients
		// that unsubscribed.
		ch.subs.clear()
	}
	ch.subs.count = p.Count
	ch.sizeBytes = p.SizeBytes
	if p.IntervalSec > 0 && ch.est.ewma == 0 {
		ch.est.ewma = p.IntervalSec
	}
	if p.LastVersion > ch.lastVersion {
		ch.lastVersion = p.LastVersion
	}
	if p.Level >= 0 && p.Epoch >= ch.epoch {
		ch.level = p.Level
		ch.epoch = p.Epoch
	}
	// The root reconquers: if the ring still says this node is the
	// channel's root, adopting the claim is only anti-entropy — take
	// ownership back at claimEpoch+1 and re-replicate, so exactly the
	// root survives the merge.
	//
	// Self-delivered claims promote too. A stale replica routes its
	// claim toward the channel id; the routing layer retries through
	// every closer candidate, evicting the ones whose sends fail, and
	// delivers locally only when none survive — at which instant this
	// node IS the root among reachable nodes. Skipping self-deliveries
	// here livelocks: before the next anti-entropy round, stabilization
	// gossip re-learns the dead closer peers from neighbors' leaf sets,
	// IsRoot flips false again, and the replica re-routes the same doomed
	// claim forever while the channel stays ownerless.
	if n.overlay.IsRoot(ch.id) {
		n.becomeOwnerLocked(ch)
		n.pushFullLocked(ch)
	}
	n.emitOwnerEpochLocked(ch)
	// Replica state is exactly what a restart must not lose: persist the
	// pushed subscriber set wholesale. An emptied channel (Count 0, no
	// list) must also replace durably, or the store would resurrect
	// unsubscribed clients on restart.
	n.emitMetaLocked(ch, p.Subscribers != nil || p.Count == 0)
	n.mu.Unlock()
	n.flushReplication()
	for _, s := range handoff {
		n.overlay.Route(ch.id, msgSubscribe, &subscribeMsg{URL: ch.url, Client: s.Client, Entry: s.Entry})
	}
}

// sameSubscribers reports whether a full push names exactly the
// identities held. Full pushes are rare — promotions, claims and resync
// answers — but a claim or resync often carries the set the replica
// already holds, which it then keeps instead of rebuilding. Pushes are
// built from the owner's map and list each client once.
func sameSubscribers(held map[string]pastry.Addr, pushed []replicatedSub) bool {
	if held == nil || len(held) != len(pushed) {
		return false
	}
	for _, sub := range pushed {
		if entry, ok := held[sub.Client]; !ok || entry != sub.Entry {
			return false
		}
	}
	return true
}

// handlePeerFault runs when the overlay detects a dead peer: replicas
// whose primary owner failed promote themselves if they are now the root
// (§3.3: "In the event an owner fails, a new neighbor automatically
// replaces it ... a node that becomes a new owner receives the state from
// other owners of the channel").
func (n *Node) handlePeerFault(dead pastry.Addr) {
	n.mu.Lock()
	// Remember the fault: the leaf set is not a liveness oracle (peers
	// that never send to the dead node gossip it back), so delegate
	// recruitment consults this memory to avoid re-recruiting it.
	if n.recentFaults == nil {
		n.recentFaults = make(map[ids.ID]time.Time)
	}
	n.recentFaults[dead.ID] = n.now()
	var promoted []*channelState
	for _, ch := range n.channels {
		if !ch.isOwner && ch.isReplica && n.overlay.IsRoot(ch.id) {
			promoted = append(promoted, ch)
		}
	}
	// Promote in URL order: becomeOwnerLocked emits WAL records and
	// epoch bumps whose order must be rerun-stable under one seed.
	sort.Slice(promoted, func(i, j int) bool { return promoted[i].url < promoted[j].url })
	for _, ch := range promoted {
		n.becomeOwnerLocked(ch)
		n.pushFullLocked(ch)
		n.stats.LevelChanges++ // ownership transfer shows up in churn stats
	}
	// Force-expire the lease of every subscriber whose entry node just
	// died (zero time = already past any TTL), whether or not it ever
	// heartbeat: the next maintain pass re-routes its notifications to a
	// surviving node instead of black-holing them at the dead one. This
	// runs AFTER the promotions so a replica promoted by this very fault
	// (the dead peer owned the channel AND was a subscriber's entry)
	// marks those entries too.
	var pushes []delegatePush
	for _, ch := range n.channels {
		// A partition delegated by the dead peer is orphaned; drop it
		// now so a stale notify cannot race the successor's recruit.
		if ch.delegSubs != nil && ch.delegFrom.ID == dead.ID {
			ch.delegSubs = nil
			ch.delegFrom = pastry.Addr{}
		}
		if !ch.isOwner {
			continue
		}
		// A dead delegate leaves its slice of subscribers unserved;
		// re-partition over the survivors immediately — the window
		// where its slice misses updates is one fault detection, not
		// a maintenance round. Exclude the dead identifier in case
		// the overlay has not pruned its leaf set yet.
		if addrsContain(ch.delegates, dead) {
			pushes = n.refreshDelegatesLocked(ch, pushes, dead.ID)
		}
		for client, entry := range ch.subs.ids {
			if entry.ID == dead.ID {
				if ch.leases == nil {
					ch.leases = make(map[string]time.Time)
				}
				ch.leases[client] = time.Time{}
			}
		}
	}
	n.mu.Unlock()
	n.sendDelegatePushes(pushes)
	n.flushReplication()
}

// notifySubscribers delivers an update to every subscriber of an owned
// channel through the IM gateway (§3.5). Subscribers are grouped by entry
// node — one notifyBatch per remote gateway, the paper's centralized IM
// intermediary generalized to the overlay (§4) — so the owner's
// per-update cost scales with distinct entry nodes, and a sharded channel
// (delegate.go) sends one delegateNotify per delegate plus batches for
// the owner's own slot, scaling with delegates alone.
func (n *Node) notifySubscribers(ch *channelState, version uint64, diff string, at time.Time) {
	if n.notify == nil {
		return
	}
	n.mu.Lock()
	src := ch.subs.ids
	var delegates []pastry.Addr
	if len(ch.delegates) > 0 {
		src = ch.ownEntries
		delegates = append(delegates, ch.delegates...)
	}
	epoch := ch.ownerEpoch
	targets := n.targetScratch(len(src))
	for c, entry := range src {
		//lint:allow maporder sendEntryBatches sorts targets by (entry, client) before anything is sent
		*targets = append(*targets, notifyTarget{client: c, entry: entry})
	}
	// Count only the targets this node fans out itself; delegates count
	// their partitions when the delegateNotify reaches them, so cloud-wide
	// sums stay exact.
	n.stats.NotificationsSent += uint64(len(*targets))
	n.stats.DelegateUpdates += uint64(len(delegates))
	n.mu.Unlock()
	if n.obsOwnerSend != nil && !at.IsZero() {
		n.obsOwnerSend(n.now().Sub(at))
	}
	for _, d := range delegates {
		n.overlay.SendDirect(d, msgDelegateNotify, &delegateNotifyMsg{
			URL: ch.url, Version: version, Diff: diff, OwnerEpoch: epoch, At: atNanos(at),
		})
	}
	batches, failed := n.sendEntryBatches(ch.url, version, diff, at, *targets)
	n.putTargetScratch(targets)
	if batches > 0 {
		n.mu.Lock()
		n.stats.NotifyBatchesSent += uint64(batches)
		n.mu.Unlock()
	}
	n.expireFailedEntries(ch, failed)
}

// expireFailedEntries force-expires the leases of clients whose notify
// batch bounced off a dead entry node — the same zero-time mark
// handlePeerFault plants, but driven by the owner's own delivery
// failures. The overlay fault callback fires at most once per eviction,
// so entries inherited after it (a replica promoted later, a handed-off
// subscriber set) would otherwise black-hole forever; here the very
// update that failed to deliver schedules the repair, and the next lease
// sweep re-points the records at survivors.
func (n *Node) expireFailedEntries(ch *channelState, failed []notifyTarget) {
	if len(failed) == 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !ch.isOwner {
		return
	}
	for _, t := range failed {
		entry, ok := ch.subs.ids[t.client]
		if !ok || entry.ID != t.entry.ID {
			continue // already re-pointed elsewhere
		}
		if ch.leases == nil {
			ch.leases = make(map[string]time.Time)
		}
		ch.leases[t.client] = time.Time{}
	}
}

// handleNotifyBatch delivers one update to every listed client that
// entered the system through this node, carrying the diff once per entry
// node instead of once per subscriber.
func (n *Node) handleNotifyBatch(msg pastry.Message) {
	p, ok := msg.Payload.(*notifyBatchMsg)
	if !ok || len(p.Clients) == 0 {
		return
	}
	at := atTime(p.At)
	if n.obsEntryRecv != nil && !at.IsZero() {
		n.obsEntryRecv(n.now().Sub(at))
	}
	if n.notify != nil {
		n.notify.NotifyBatch(p.Clients, p.URL, p.Version, p.Diff, at)
	}
}

// now returns the node's clock time; extracted for brevity.
func (n *Node) now() time.Time { return n.clk.Now() }

// atNanos and atTime convert the detection timestamp between its wire
// form (unix nanoseconds, zero = absent) and time.Time.
func atNanos(at time.Time) int64 {
	if at.IsZero() {
		return 0
	}
	return at.UnixNano()
}

func atTime(nanos int64) time.Time {
	if nanos == 0 {
		return time.Time{}
	}
	return time.Unix(0, nanos)
}
