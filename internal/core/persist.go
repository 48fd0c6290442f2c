package core

import (
	"sort"
	"time"

	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/store"
)

// This file is the node's durability seam: mutation handlers in
// subscribe.go, maintain.go, and polling.go call the emit helpers below,
// which are no-ops until a store.Sink is attached (simulations and most
// tests never pay for persistence), and the restore/reconcile pair
// rebuilds node state from a recovered image after a restart.

// SetStateSink attaches the durable state sink. Call before Start; live
// deployments pass the node's *store.Store, everything else leaves the
// sink nil.
func (n *Node) SetStateSink(sink store.Sink) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.durable = sink
}

// emitMetaLocked persists a channel's current metadata — ownership,
// level, epoch, version, tradeoff factors — and, when replaceSubs is set,
// the whole subscriber set. Callers hold n.mu.
func (n *Node) emitMetaLocked(ch *channelState, replaceSubs bool) {
	if n.durable == nil {
		return
	}
	rec := store.Record{
		Op:          store.OpMeta,
		URL:         ch.url,
		Owner:       ch.isOwner,
		Replica:     ch.isReplica,
		Level:       ch.level,
		Epoch:       ch.epoch,
		Version:     ch.lastVersion,
		Count:       ch.subs.count,
		SizeBytes:   ch.sizeBytes,
		IntervalSec: ch.est.ewma,
		ReplaceSubs: replaceSubs,
	}
	if replaceSubs {
		rec.Subs = make([]store.Sub, 0, len(ch.subs.ids))
		for client, entry := range ch.subs.ids {
			rec.Subs = append(rec.Subs, store.Sub{Client: client, EntryID: entry.ID, EntryEndpoint: entry.Endpoint})
		}
		// The record lands in the WAL; sort so identical state writes
		// identical bytes (and byte-compares across seeded runs).
		sort.Slice(rec.Subs, func(i, j int) bool { return rec.Subs[i].Client < rec.Subs[j].Client })
	}
	n.durable.StateChanged(rec)
}

// emitSubLocked persists one subscription add or remove. Callers hold n.mu.
func (n *Node) emitSubLocked(ch *channelState, client string, entry pastry.Addr, removed bool) {
	if n.durable == nil {
		return
	}
	op := store.OpSubscribe
	if removed {
		op = store.OpUnsubscribe
	}
	n.durable.StateChanged(store.Record{
		Op:  op,
		URL: ch.url,
		Sub: store.Sub{Client: client, EntryID: entry.ID, EntryEndpoint: entry.Endpoint},
	})
}

// emitOwnerEpochLocked persists the channel's ownership fencing epoch
// for a channel this node is answerable for. Callers hold n.mu.
func (n *Node) emitOwnerEpochLocked(ch *channelState) {
	if n.durable == nil || !(ch.isOwner || ch.isReplica) {
		return
	}
	n.durable.StateChanged(store.Record{Op: store.OpOwnerEpoch, URL: ch.url, OwnerEpoch: ch.ownerEpoch})
}

// emitLeaseLocked persists one subscriber's lease mark; a zero time
// journals a lease CLEAR (UnixNano 0), which the store applies as
// removal. Callers hold n.mu.
func (n *Node) emitLeaseLocked(ch *channelState, client string, at time.Time) {
	if n.durable == nil {
		return
	}
	var nanos int64
	if !at.IsZero() {
		nanos = at.UnixNano()
	}
	n.durable.StateChanged(store.Record{
		Op:    store.OpLease,
		URL:   ch.url,
		Lease: store.Lease{Client: client, UnixNano: nanos},
	})
}

// emitDelegatesLocked persists a channel's fan-out delegate roster
// wholesale (an empty roster clears the record). Partitions are not
// journaled: they are a pure function of the subscriber set and the
// roster, rebuilt by the recovery refresh. Callers hold n.mu.
func (n *Node) emitDelegatesLocked(ch *channelState) {
	if n.durable == nil {
		return
	}
	rec := store.Record{Op: store.OpDelegates, URL: ch.url}
	if len(ch.delegates) > 0 {
		rec.Delegates = make([]store.Delegate, 0, len(ch.delegates))
		for _, d := range ch.delegates {
			rec.Delegates = append(rec.Delegates, store.Delegate{ID: d.ID, Endpoint: d.Endpoint})
		}
	}
	n.durable.StateChanged(rec)
}

// emitVersionLocked persists version progress for a channel this node is
// answerable for (owner or replica). Callers hold n.mu.
func (n *Node) emitVersionLocked(ch *channelState) {
	if n.durable == nil || !(ch.isOwner || ch.isReplica) {
		return
	}
	n.durable.StateChanged(store.Record{Op: store.OpVersion, URL: ch.url, Version: ch.lastVersion})
}

// RestoreChannels seeds the node's channel table from a recovered durable
// image, before the node joins the overlay. Ownership is not assumed:
// ReconcileRecovered re-derives it against the live ring once the join
// completes.
func (n *Node) RestoreChannels(channels []store.Channel) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range channels {
		if c.URL == "" {
			continue
		}
		ch := n.getChannel(c.URL)
		ch.level = c.Level
		ch.epoch = c.Epoch
		ch.ownerEpoch = c.OwnerEpoch
		ch.lastVersion = c.Version
		ch.sizeBytes = c.SizeBytes
		if c.IntervalSec > 0 {
			ch.est.ewma = c.IntervalSec
		}
		if len(c.Subs) > 0 {
			ch.subs.clear()
			for _, s := range c.Subs {
				ch.subs.add(s.Client, pastry.Addr{ID: s.EntryID, Endpoint: s.EntryEndpoint})
			}
		} else {
			ch.subs.count = c.Count
		}
		// Recovered lease marks say which subscribers live under lease
		// discipline; their timestamps predate the outage, so each gets a
		// fresh grace window instead — an entry node that really died
		// simply fails to refresh and expires one TTL from now.
		if len(c.Leases) > 0 {
			now := n.now()
			ch.leases = make(map[string]time.Time, len(c.Leases))
			for _, l := range c.Leases {
				if _, ok := ch.subs.ids[l.Client]; ok {
					ch.leases[l.Client] = now
				}
			}
		}
		// The recovered delegate roster marks the channel as sharded so a
		// resumed owner's first update already fans out O(delegates); the
		// partitions themselves are soft state — the post-reconcile
		// delegate refresh recomputes and re-pushes them, and it will also
		// shrink or clear a roster whose nodes died during the outage.
		if len(c.Delegates) > 0 {
			ch.delegates = make([]pastry.Addr, 0, len(c.Delegates))
			for _, d := range c.Delegates {
				ch.delegates = append(ch.delegates, pastry.Addr{ID: d.ID, Endpoint: d.Endpoint})
			}
			slots := len(ch.delegates) + 1
			ch.ownEntries = make(map[string]pastry.Addr)
			for client, entry := range ch.subs.ids {
				if delegateSlot(client, slots) == 0 {
					ch.ownEntries[client] = entry
				}
			}
		}
		ch.recoveredOwner = c.Owner || c.Replica
	}
}

// ReconcileRecovered runs once the node has rejoined the ring: recovered
// channels this node still roots resume ownership — becomeOwnerLocked
// proposes recoveredEpoch+1, and the replication push carrying that
// claim demotes any interim owner promoted during the outage on receipt
// (the owner-epoch handshake; losers of the epoch comparison surrender
// immediately instead of waiting for an IsRoot self-check). Channels
// whose root moved while the node was down hand their durable
// subscriptions to the current owner through the ordinary subscribe
// path, so no client has to re-subscribe either way.
func (n *Node) ReconcileRecovered() {
	type handoff struct {
		id   ids.ID
		url  string
		subs []replicatedSub
	}
	n.mu.Lock()
	var handoffs []handoff
	var pushes []delegatePush
	// Reconcile channels in URL order: resumption pushes, handoff
	// re-injections, and the WAL records emitted below must not follow
	// map iteration order, or recovery would desynchronize seeded runs.
	chans := make([]*channelState, 0, len(n.channels))
	for _, ch := range n.channels {
		chans = append(chans, ch)
	}
	sort.Slice(chans, func(i, j int) bool { return chans[i].url < chans[j].url })
	for _, ch := range chans {
		if !ch.recoveredOwner {
			continue
		}
		ch.recoveredOwner = false
		if n.overlay.IsRoot(ch.id) {
			n.becomeOwnerLocked(ch)
			if ch.isOwner && len(ch.delegates) > 0 {
				// Re-shard now rather than a maintenance round from now:
				// the recovered roster may name dead nodes, and surviving
				// delegates expired their partitions during the outage.
				pushes = n.refreshDelegatesLocked(ch, pushes, ids.ID{})
			}
			n.pushFullLocked(ch)
			continue
		}
		// The root moved. Surrender the recovered claim (demote clears
		// the identity map so a later promotion cannot resurrect these
		// clients from a stale copy) and re-inject the subscriptions at
		// the current owner.
		h := handoff{id: ch.id, url: ch.url}
		for client, entry := range ch.subs.ids {
			h.subs = append(h.subs, replicatedSub{Client: client, Entry: entry})
		}
		sort.Slice(h.subs, func(i, j int) bool { return h.subs[i].Client < h.subs[j].Client })
		if len(h.subs) > 0 {
			handoffs = append(handoffs, h)
		}
		n.demoteLocked(ch, false)
		n.emitMetaLocked(ch, true)
	}
	n.mu.Unlock()
	n.sendDelegatePushes(pushes)
	n.flushReplication()
	for _, h := range handoffs {
		for _, s := range h.subs {
			n.overlay.Route(h.id, msgSubscribe, &subscribeMsg{URL: h.url, Client: s.Client, Entry: s.Entry})
		}
	}
}
