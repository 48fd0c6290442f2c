package core

import (
	"sort"
	"time"

	"corona/internal/ids"
	"corona/internal/pastry"
)

// Hot-channel fan-out sharding. One owner node holding every subscriber
// entry record of a flash-crowd channel concentrates the whole system's
// notification load on itself; with Config.DelegateThreshold set, the
// owner instead recruits leaf-set nodes as delegates once the channel's
// subscriber count crosses the threshold, partitions the entry records
// across them by a deterministic hash of the client handle, and
// disseminates one delegateNotify per delegate — O(delegates) owner
// messages per update instead of O(entry nodes) or O(subscribers). Each
// delegate fans its slice out to entry nodes exactly as an unsharded
// owner would.
//
// The structure is soft state kept convergent by periodic full refreshes
// (the self-stabilizing supervised pub/sub discipline): every maintenance
// round the owner re-pushes each delegate's complete partition, so a lost
// incremental push, a delegate restart, or a re-partition after churn
// heals within one round. Delegations are fenced by the PR-5 owner epoch
// — a delegate ignores pushes and notifies older than the epoch it last
// accepted — and expire if the owner stops refreshing, so a dissolved
// delegation cannot notify from stale records forever. Only the owner's
// delegate roster is durable (store.OpDelegates); partitions themselves
// are derivable from the subscriber set and rebuilt on recovery.

// notifyTarget is one fan-out destination: a client and the entry node
// whose gateway delivers to it.
type notifyTarget struct {
	client string
	entry  pastry.Addr
}

// delegateExpiry is how many maintenance intervals a delegate keeps a
// partition its owner has stopped refreshing.
const delegateExpiry = 3

// delegateSlot assigns a client to one of slots fan-out shards; slot 0 is
// the owner's own share, slot i maps to the owner's i-1th delegate in
// roster order. The assignment depends only on the client handle and the
// shard count, so it needs no coordination and no per-client state.
func delegateSlot(client string, slots int) int {
	h := ids.HashString(client)
	return int(uint(h[0])<<8|uint(h[1])) % slots
}

// targetScratch hands out the pooled fan-out target slice, grown to
// capacity. Pairing every use with putTargetScratch keeps hot-channel
// updates from allocating O(subscribers) under n.mu (pastry's fanOut
// scratch, applied to the notification path).
func (n *Node) targetScratch(capacity int) *[]notifyTarget {
	ts, _ := n.notifyScratch.Get().(*[]notifyTarget)
	if ts == nil {
		ts = new([]notifyTarget)
	}
	if cap(*ts) < capacity {
		*ts = make([]notifyTarget, 0, capacity)
	}
	return ts
}

func (n *Node) putTargetScratch(ts *[]notifyTarget) {
	*ts = (*ts)[:0]
	n.notifyScratch.Put(ts)
}

// sendEntryBatches groups fan-out targets by entry node and emits one
// batch per group: a NotifyBatch through this node's own gateway for
// clients attached here (or with no entry recorded), one notifyBatchMsg
// overlay send per remote entry node. Targets are sorted in place. It
// returns the number of batches emitted; callers must not hold n.mu. A
// batch to a dead entry node faults at the overlay, and handlePeerFault
// has the records naming it re-pointed.
func (n *Node) sendEntryBatches(url string, version uint64, diff string, at time.Time, targets []notifyTarget) int {
	if len(targets) == 0 {
		return 0
	}
	self := n.Self().ID
	// Order by (entry, client), not entry alone: the collect loops feed
	// targets in map-iteration order, so without the client tiebreak the
	// Clients list inside each batch would differ between identically
	// seeded runs.
	sort.Slice(targets, func(i, j int) bool {
		if c := targets[i].entry.ID.Cmp(targets[j].entry.ID); c != 0 {
			return c < 0
		}
		return targets[i].client < targets[j].client
	})
	batches := 0
	for start := 0; start < len(targets); {
		end := start + 1
		for end < len(targets) && targets[end].entry.ID == targets[start].entry.ID {
			end++
		}
		clients := make([]string, 0, end-start)
		for _, t := range targets[start:end] {
			clients = append(clients, t.client)
		}
		if entry := targets[start].entry; entry.IsZero() || entry.ID == self {
			// The local branch IS this batch's entry-node receipt — the
			// overlay hop it skips is what handleNotifyBatch observes.
			if n.obsEntryRecv != nil && !at.IsZero() {
				n.obsEntryRecv(n.now().Sub(at))
			}
			n.notify.NotifyBatch(clients, url, version, diff, at)
		} else {
			n.overlay.SendDirect(entry, msgNotifyBatch, &notifyBatchMsg{
				URL: url, Version: version, Diff: diff, Clients: clients, At: atNanos(at),
			})
		}
		batches++
		start = end
	}
	return batches
}

// delegatePush pairs an overlay target with a delegation payload, built
// under n.mu and sent after it is released.
type delegatePush struct {
	to  pastry.Addr
	msg *delegateMsg
}

// delegateMaintain is the per-maintenance-round sharding pass: the owner
// side reconciles every owned channel's delegate roster with its
// subscriber count and re-pushes full partitions; the delegate side drops
// partitions whose owner has gone quiet.
func (n *Node) delegateMaintain() {
	now := n.now()
	n.mu.Lock()
	for id, at := range n.recentFaults {
		if now.Sub(at) > delegateExpiry*n.cfg.MaintenanceInterval {
			delete(n.recentFaults, id)
		}
	}
	var pushes []delegatePush
	for _, ch := range n.channels {
		if ch.delegSubs != nil && now.Sub(ch.delegAt) > delegateExpiry*n.cfg.MaintenanceInterval {
			ch.delegSubs = nil
			ch.delegFrom = pastry.Addr{}
		}
		if ch.isOwner {
			pushes = n.refreshDelegatesLocked(ch, pushes, ids.ID{})
		}
	}
	n.mu.Unlock()
	n.sendDelegatePushes(pushes)
}

// sendDelegatePushes fires collected delegation pushes; callers must not
// hold n.mu.
func (n *Node) sendDelegatePushes(pushes []delegatePush) {
	for _, p := range pushes {
		n.overlay.SendDirect(p.to, msgDelegate, p.msg)
	}
}

// refreshDelegatesLocked reconciles one owned channel's delegate roster —
// recruiting one delegate per threshold's worth of subscribers from the
// leaf set (excluding the given identifier, used when reacting to a peer
// fault the overlay may not have pruned yet), revoking nodes that leave
// the roster — and appends full-partition Replace pushes for the members
// that remain. Re-pushing everything every round is the self-stabilizing
// backstop: any partition a delegate lost or never received is restored
// within one maintenance interval. Callers hold n.mu.
func (n *Node) refreshDelegatesLocked(ch *channelState, pushes []delegatePush, exclude ids.ID) []delegatePush {
	want := 0
	if t := n.cfg.DelegateThreshold; t > 0 {
		want = ch.subs.count / t
	}
	var next []pastry.Addr
	if want > 0 {
		now := n.now()
		for _, leaf := range n.overlay.Leaves() {
			if leaf.ID == exclude || leaf.ID == n.Self().ID {
				continue
			}
			// A recently-faulted peer can linger in (or be gossiped back
			// into) the leaf set; recruiting it would black-hole its slice
			// until the next fault detection.
			if at, dead := n.recentFaults[leaf.ID]; dead && now.Sub(at) <= delegateExpiry*n.cfg.MaintenanceInterval {
				continue
			}
			next = append(next, leaf)
		}
		sort.Slice(next, func(i, j int) bool { return next[i].ID.Cmp(next[j].ID) < 0 })
		if want < len(next) {
			next = next[:want]
		}
	}
	// Each refresh is one roster revision; everything it pushes carries
	// the revision number so a delegate can discard pushes from an older
	// revision that land late (sendDelegatePushes runs unlocked, and a
	// failed send can trigger handlePeerFault's re-partition mid-loop).
	ch.delegSeq++
	if !addrsEqual(ch.delegates, next) {
		for _, old := range ch.delegates {
			if !addrsContain(next, old) {
				pushes = append(pushes, delegatePush{to: old, msg: &delegateMsg{
					URL: ch.url, OwnerEpoch: ch.ownerEpoch, Seq: ch.delegSeq,
					Owner: n.Self(), Revoke: true,
				}})
			}
		}
		ch.delegates = next
		n.emitDelegatesLocked(ch)
	}
	if len(ch.delegates) == 0 {
		ch.ownEntries = nil
		return pushes
	}
	slots := len(ch.delegates) + 1
	parts := make([][]replicatedSub, slots)
	own := make(map[string]pastry.Addr, len(ch.subs.ids)/slots+1)
	for c, entry := range ch.subs.ids {
		if s := delegateSlot(c, slots); s == 0 {
			own[c] = entry
		} else {
			parts[s] = append(parts[s], replicatedSub{Client: c, Entry: entry})
		}
	}
	// Each partition crosses the wire in a delegatePush; sort so the
	// payload bytes are a pure function of the subscriber set.
	for i := range parts {
		sort.Slice(parts[i], func(a, b int) bool { return parts[i][a].Client < parts[i][b].Client })
	}
	ch.ownEntries = own
	for i, d := range ch.delegates {
		pushes = append(pushes, delegatePush{to: d, msg: &delegateMsg{
			URL: ch.url, OwnerEpoch: ch.ownerEpoch, Seq: ch.delegSeq, Owner: n.Self(),
			Replace: true, Subs: parts[i+1],
		}})
	}
	return pushes
}

// shardEntryChangedLocked keeps a sharded channel's partitions current
// when one subscriber record changes between refreshes: the owner's own
// slot is updated in place; a delegate's slot yields an incremental push
// for the caller to fire once n.mu is released. Returns nil for
// unsharded channels and owner-slot changes. Callers hold n.mu.
func (n *Node) shardEntryChangedLocked(ch *channelState, client string, entry pastry.Addr, removed bool) *delegatePush {
	if !ch.isOwner || len(ch.delegates) == 0 {
		return nil
	}
	slot := delegateSlot(client, len(ch.delegates)+1)
	if slot == 0 {
		if removed {
			delete(ch.ownEntries, client)
		} else {
			if ch.ownEntries == nil {
				ch.ownEntries = make(map[string]pastry.Addr)
			}
			ch.ownEntries[client] = entry
		}
		return nil
	}
	msg := &delegateMsg{URL: ch.url, OwnerEpoch: ch.ownerEpoch, Seq: ch.delegSeq, Owner: n.Self()}
	if removed {
		msg.Removed = []string{client}
	} else {
		msg.Subs = []replicatedSub{{Client: client, Entry: entry}}
	}
	return &delegatePush{to: ch.delegates[slot-1], msg: msg}
}

// handleDelegate installs, patches, or revokes a fan-out partition pushed
// by a hot channel's owner.
func (n *Node) handleDelegate(msg pastry.Message, p *delegateMsg) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch := n.getChannel(p.URL)
	// stale: the push's (epoch, roster revision) is older than the last
	// delegation this node accepted — a delayed or raced push from a
	// superseded roster, which must not overwrite the newer partition.
	stale := p.OwnerEpoch < ch.delegEpoch ||
		(p.OwnerEpoch == ch.delegEpoch && p.Seq < ch.delegSeqSeen)
	switch {
	case p.Revoke:
		if !stale {
			ch.delegSubs = nil
			ch.delegFrom = pastry.Addr{}
			ch.delegEpoch = p.OwnerEpoch
			ch.delegSeqSeen = p.Seq
		}
	case ch.isOwner:
		// A node that believes it owns the channel takes no delegation:
		// the replicate/update claim handshake decides which owner is
		// real, and the winner re-pushes partitions within a round.
	case stale:
	default:
		if p.Replace {
			ch.delegSubs = make(map[string]pastry.Addr, len(p.Subs))
		} else if ch.delegSubs == nil {
			// An incremental patch with no installed partition (this node
			// expired or restarted it): ignore rather than fan out a
			// fragment as if it were the whole slice; the owner's next
			// Replace refresh installs the full partition.
			return
		}
		for _, s := range p.Subs {
			ch.delegSubs[s.Client] = s.Entry
		}
		for _, c := range p.Removed {
			delete(ch.delegSubs, c)
		}
		ch.delegFrom = p.Owner
		ch.delegEpoch = p.OwnerEpoch
		ch.delegSeqSeen = p.Seq
		ch.delegAt = n.now()
	}
}

// handleDelegateNotify fans one update out to the entry nodes of the
// partition this node carries for the channel's owner.
func (n *Node) handleDelegateNotify(msg pastry.Message, p *delegateNotifyMsg) {
	if n.notify == nil {
		return
	}
	n.mu.Lock()
	ch := n.getChannel(p.URL)
	if ch.delegSubs == nil || p.OwnerEpoch < ch.delegEpoch {
		n.mu.Unlock()
		return
	}
	if p.Version > ch.lastVersion {
		ch.lastVersion = p.Version
	}
	targets := n.targetScratch(len(ch.delegSubs))
	for c, entry := range ch.delegSubs {
		//lint:allow maporder sendEntryBatches sorts targets by (entry, client) before anything is sent
		*targets = append(*targets, notifyTarget{client: c, entry: entry})
	}
	n.stats.NotificationsSent += uint64(len(*targets))
	n.mu.Unlock()
	batches := n.sendEntryBatches(p.URL, p.Version, p.Diff, atTime(p.At), *targets)
	n.putTargetScratch(targets)
	if batches > 0 {
		n.mu.Lock()
		n.stats.NotifyBatchesSent += uint64(batches)
		n.mu.Unlock()
	}
}

func addrsEqual(a, b []pastry.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func addrsContain(addrs []pastry.Addr, a pastry.Addr) bool {
	for _, x := range addrs {
		if x.ID == a.ID {
			return true
		}
	}
	return false
}
