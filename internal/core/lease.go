package core

import (
	"sort"
	"time"

	"corona/internal/ids"
	"corona/internal/pastry"
)

// Entry-node leases (ROADMAP "Entry-node leases at the owner" and
// "Rewrite recovered entry addresses"). A subscriber's entry record at
// the channel owner names the node that delivers its notifications; when
// that node dies, the record black-holes every notification until the
// client replays its subscriptions. Leases make the repair server-side:
// entry nodes heartbeat liveness for their attached sessions (each client
// session's keep-alive, on every framing, fans out into leaseMsg routes
// here), owners timestamp each subscriber's entry
// record, and the owner's maintain pass expires dead entries and
// re-routes their notifications to a surviving leaf-set node proactively
// — the proactive repair posture of Scribe's multicast-tree maintenance.

// RefreshLeases asserts, on behalf of an attached client, that this node
// is the client's live entry point for each listed channel. Each
// assertion routes to the channel's owner, which refreshes the
// subscriber's lease and re-points its entry record here — the
// server-side half of client failover, needing no Subscribe replay.
func (n *Node) RefreshLeases(client string, urls []string) {
	for _, url := range urls {
		if url == "" {
			continue
		}
		n.overlay.Route(ids.HashString(url), msgLease, &leaseMsg{
			URL:    url,
			Client: client,
			Entry:  n.Self(),
		})
	}
}

// leaseAssertTombstone is how long after an unsubscribe a lease assert
// for the departed client is ignored. It only needs to outlive overlay
// message reordering (an in-flight heartbeat racing the unsubscribe);
// once the client's session drops the URL from its channel set no
// further heartbeats mention it.
const leaseAssertTombstone = 30 * time.Second

// tombstoneLocked records an unsubscribe so racing lease asserts cannot
// resurrect the client, pruning aged-out entries while it is here so the
// map stays bounded by the last window's unsubscribes. Callers hold n.mu.
func (n *Node) tombstoneLocked(ch *channelState, client string) {
	now := n.now()
	if ch.unsubbed == nil {
		ch.unsubbed = make(map[string]time.Time)
	}
	for c, at := range ch.unsubbed {
		if now.Sub(at) > leaseAssertTombstone {
			delete(ch.unsubbed, c)
		}
	}
	ch.unsubbed[client] = now
}

// handleLease runs at the channel's root: an entry node vouches for one
// attached subscriber. The refresh is an idempotent subscription assert —
// it re-points a moved client's entry record (failover) and re-creates a
// subscription an in-memory owner lost across a restart — plus a lease
// timestamp the maintain sweep checks. Asserts for a freshly
// unsubscribed client are dropped: a heartbeat already in flight when
// the unsubscribe routed must not resurrect the subscriber.
func (n *Node) handleLease(msg pastry.Message, p *leaseMsg) {
	n.mu.Lock()
	ch := n.getChannel(p.URL)
	if ts, dead := ch.unsubbed[p.Client]; dead {
		if n.now().Sub(ts) <= leaseAssertTombstone {
			n.mu.Unlock()
			return
		}
		delete(ch.unsubbed, p.Client)
	}
	changed := ch.subs.add(p.Client, p.Entry)
	wasOwner := ch.isOwner
	n.becomeOwnerLocked(ch)
	now := n.now()
	var hadLease bool
	if ch.isOwner {
		if ch.leases == nil {
			ch.leases = make(map[string]time.Time)
		}
		_, hadLease = ch.leases[p.Client]
		ch.leases[p.Client] = now
		n.stats.LeaseRefreshes++
	}
	var push *delegatePush
	if changed {
		n.emitSubLocked(ch, p.Client, p.Entry, false)
		push = n.shardEntryChangedLocked(ch, p.Client, p.Entry, false)
	}
	if ch.isOwner && (changed || !hadLease) {
		// Journal the lease only when it starts or its entry moves;
		// steady-state heartbeats stay out of the WAL. The record marks
		// which subscribers are under lease discipline — recovery stamps
		// them with a fresh grace window rather than trusting a timestamp
		// from before the crash.
		n.emitLeaseLocked(ch, p.Client, now)
	}
	n.replicateSubLocked(ch, wasOwner, changed, p.Client, p.Entry, false)
	n.mu.Unlock()
	if push != nil {
		n.overlay.SendDirect(push.to, msgDelegate, push.msg)
	}
	n.flushReplication()
}

// handleLeaseExpire runs at a channel owner: a delegate's
// handlePeerFault reports clients of its partition whose entry node it
// found dead. The owner plants the same zero-time lease mark its own
// handlePeerFault does, and the next sweep re-points the entries at
// survivors. Clients whose entry record has
// already moved off the reported node are skipped, so a delayed report
// cannot churn a repaired subscription.
func (n *Node) handleLeaseExpire(msg pastry.Message, p *leaseExpireMsg) {
	if p.Entry.IsZero() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ch := n.getChannel(p.URL)
	if !ch.isOwner {
		return
	}
	for _, client := range p.Clients {
		entry, subscribed := ch.subs.ids[client]
		if !subscribed || entry.ID != p.Entry.ID {
			continue
		}
		if ch.leases == nil {
			ch.leases = make(map[string]time.Time)
		}
		ch.leases[client] = time.Time{}
	}
}

// leaseSweep is the owner's maintain-pass half of the lease protocol:
// subscribers whose entry node stopped proving liveness for longer than
// LeaseTTL (or was force-expired by a peer fault) have their entry
// records re-pointed at a surviving node, so notifications stop flowing
// into a dead gateway. The re-pointed entry is a proactive guess — the
// client's own next lease refresh, arriving through whichever node it
// failed over to, corrects it authoritatively.
func (n *Node) leaseSweep() {
	ttl := n.cfg.LeaseTTL
	if ttl <= 0 {
		return
	}
	now := n.now()
	n.mu.Lock()
	var pushes []delegatePush
	// Sweep channels and leases in sorted order: fallback picks, WAL
	// records, and replication deltas all flow from this loop, and map
	// iteration order would make them differ between identically seeded
	// runs.
	swept := make([]*channelState, 0, len(n.channels))
	for _, ch := range n.channels {
		if ch.isOwner && len(ch.leases) > 0 {
			swept = append(swept, ch)
		}
	}
	sort.Slice(swept, func(i, j int) bool { return swept[i].url < swept[j].url })
	for _, ch := range swept {
		clients := make([]string, 0, len(ch.leases))
		for client := range ch.leases {
			clients = append(clients, client)
		}
		sort.Strings(clients)
		for _, client := range clients {
			last := ch.leases[client]
			entry, subscribed := ch.subs.ids[client]
			if !subscribed {
				delete(ch.leases, client)
				continue
			}
			if !last.IsZero() && now.Sub(last) <= ttl {
				continue
			}
			fallback := n.fallbackEntryLocked(client, entry)
			if fallback.IsZero() || fallback.ID == entry.ID {
				// No live alternative; re-arm the lease so the probe
				// repeats next pass instead of spinning every tick.
				ch.leases[client] = now
				continue
			}
			ch.subs.add(client, fallback)
			// The re-route is one-shot: drop the lease mark rather than
			// re-arming it. A live client's next heartbeat re-creates the
			// lease (and re-points the entry authoritatively); a
			// subscriber that never heartbeats — IM, simulation, or a
			// permanently departed client — keeps the guessed entry
			// instead of being shuffled to a new node (with a WAL record
			// and a replication delta) every TTL forever. If the guessed
			// node later dies too, the peer fault re-arms the mark.
			delete(ch.leases, client)
			n.stats.LeaseReroutes++
			n.emitSubLocked(ch, client, fallback, false)
			if p := n.shardEntryChangedLocked(ch, client, fallback, false); p != nil {
				pushes = append(pushes, *p)
			}
			// Journal the lease CLEAR too (an OpLease with a zero time),
			// or the original durable lease mark would resurrect lease
			// discipline — and this re-route — on every owner restart for
			// a client that may never heartbeat again.
			n.emitLeaseLocked(ch, client, time.Time{})
			n.replicateSubLocked(ch, true, true, client, fallback, false)
		}
	}
	n.mu.Unlock()
	n.sendDelegatePushes(pushes)
	n.flushReplication()
}

// fallbackEntryLocked picks a replacement entry node for a client whose
// lease expired: this node or one of its surviving leaf-set siblings,
// chosen by the client's identifier so repeated sweeps agree, excluding
// the entry believed dead. The leaf set is not a liveness oracle —
// peers that never sent to a dead node gossip it back through state
// exchanges — so candidates recently reported dead are excluded too:
// without that memory the sweep can re-point a dead entry at another
// dead leaf, the fault of the next notify re-arms the mark, and the pair
// livelocks (each pass excludes only the current entry, so the hash can
// bounce the client between two corpses forever). Callers hold n.mu.
func (n *Node) fallbackEntryLocked(client string, dead pastry.Addr) pastry.Addr {
	now := n.now()
	faulted := func(id ids.ID) bool {
		at, bad := n.recentFaults[id]
		return bad && now.Sub(at) <= delegateExpiry*n.cfg.MaintenanceInterval
	}
	candidates := make([]pastry.Addr, 0, 8)
	if n.Self().ID != dead.ID {
		candidates = append(candidates, n.Self())
	}
	for _, leaf := range n.overlay.Leaves() {
		if leaf.ID != dead.ID && !faulted(leaf.ID) {
			candidates = append(candidates, leaf)
		}
	}
	if len(candidates) == 0 {
		return pastry.Addr{}
	}
	h := ids.HashString(client)
	return candidates[int(h[0])%len(candidates)]
}
