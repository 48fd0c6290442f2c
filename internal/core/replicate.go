package core

import (
	"corona/internal/ids"
	"corona/internal/pastry"
)

// Replication by delta and digest. An owner keeps each owned channel's
// state on its f closest ring neighbors (§3.3) in three message kinds:
//
//   - a delta (replDeltaMsg) for every subscriber change, numbered by the
//     channel's replication sequence and carrying the owner's set digest
//     after the change;
//   - one heartbeat (replBeatMsg) per neighbor per maintenance round,
//     listing every channel the owner roots with its epoch, Seq, digest
//     and scalar fields;
//   - a full push (replicateMsg) only on promotion, reconquest, claims,
//     counter-pushes, recovery, and in answer to a resync request.
//
// A replica applies a delta only when it mirrors the owner at the
// delta's epoch, holds exactly Seq-1, and its digest after the change
// matches; a heartbeat entry only when epoch, Seq and digest all match.
// Anything else — a lost or reordered delta, a planted mismatch, a
// neighbor that is not yet a replica — asks the sender for a full push
// at once (a resync, a replBeatMsg with Resync set), so a replica is
// repaired within one round trip of noticing, and at most one
// maintenance round plus one round trip after the fault.

// replBeatCap bounds the channels one heartbeat message lists, keeping
// every frame far below netwire's frame limit however many channels a
// node owns.
const replBeatCap = 256

// replSend is one queued replication message.
type replSend struct {
	to      pastry.Addr
	msgType string
	payload pastry.Payload
}

// queueReplLocked appends one replication send to the ordered outbox.
// Callers hold n.mu and call flushReplication after releasing it.
func (n *Node) queueReplLocked(to pastry.Addr, msgType string, payload pastry.Payload) {
	n.replOut = append(n.replOut, replSend{to: to, msgType: msgType, payload: payload})
}

// flushReplication sends everything queued in queue order. One goroutine
// drains at a time: a caller that finds a drain running leaves its
// sends to it, so two handlers racing on one channel cannot reorder its
// deltas on the wire. A send that fails synchronously re-enters the node
// through the fault callback, whose own sends queue behind this drain.
func (n *Node) flushReplication() {
	n.mu.Lock()
	if n.replFlushing {
		n.mu.Unlock()
		return
	}
	n.replFlushing = true
	for len(n.replOut) > 0 {
		out := n.replOut
		n.replOut, n.replSpare = n.replSpare[:0], nil
		n.mu.Unlock()
		for _, s := range out {
			n.overlay.SendDirect(s.to, s.msgType, s.payload)
		}
		clear(out)
		n.mu.Lock()
		n.replSpare = out
	}
	n.replFlushing = false
	n.mu.Unlock()
}

// neighborsLocked returns the replica set: the f closest ring neighbors,
// or none when replication is disabled. Callers hold n.mu.
func (n *Node) neighborsLocked() []pastry.Addr {
	if n.cfg.OwnerReplicas == 0 {
		return nil
	}
	return n.overlay.Neighbors(n.cfg.OwnerReplicas)
}

// pushFullLocked queues a full push of an owned channel to each
// neighbor: the promotion and reconquest path. Callers hold n.mu.
func (n *Node) pushFullLocked(ch *channelState) {
	if !ch.isOwner {
		return
	}
	neighbors := n.neighborsLocked()
	if len(neighbors) == 0 {
		return
	}
	rep := n.buildReplicateLocked(ch)
	for _, nb := range neighbors {
		n.queueReplLocked(nb, msgReplicate, rep)
	}
	n.stats.Replication.FullPushes += uint64(len(neighbors))
}

// replicateSubLocked replicates one subscriber change at an owner. A node
// that became the owner in the same call pushes its whole state — its
// neighbors are not replicas of it yet — and an established owner sends
// the change alone as the channel's next delta. Callers hold n.mu.
func (n *Node) replicateSubLocked(ch *channelState, wasOwner, changed bool, client string, entry pastry.Addr, remove bool) {
	switch {
	case ch.isOwner && !wasOwner:
		n.pushFullLocked(ch)
	case changed && ch.isOwner:
		ch.replSeq++
		neighbors := n.neighborsLocked()
		if len(neighbors) == 0 {
			return
		}
		d := &replDeltaMsg{
			URL:        ch.url,
			OwnerEpoch: ch.ownerEpoch,
			Seq:        ch.replSeq,
			Digest:     ch.subs.digest(),
			Client:     client,
			Entry:      entry,
			Remove:     remove,
		}
		for _, nb := range neighbors {
			n.queueReplLocked(nb, msgReplDelta, d)
		}
		n.stats.Replication.Deltas += uint64(len(neighbors))
	}
}

// beatEntryLocked summarizes one owned channel for the heartbeat.
// Callers hold n.mu.
func (n *Node) beatEntryLocked(ch *channelState) replBeatEntry {
	return replBeatEntry{
		URL:         ch.url,
		OwnerEpoch:  ch.ownerEpoch,
		Seq:         ch.replSeq,
		Digest:      ch.subs.digest(),
		Count:       ch.subs.count,
		LastVersion: ch.lastVersion,
		Level:       ch.level,
		Epoch:       ch.epoch,
		SizeBytes:   ch.sizeBytes,
		IntervalSec: ch.est.interval().Seconds(),
	}
}

// queueHeartbeatsLocked queues the round's heartbeat to each neighbor,
// replBeatCap entries per message; every neighbor shares the same
// payloads. Callers hold n.mu.
func (n *Node) queueHeartbeatsLocked(entries []replBeatEntry) {
	if len(entries) == 0 {
		return
	}
	neighbors := n.neighborsLocked()
	if len(neighbors) == 0 {
		return
	}
	for len(entries) > 0 {
		k := min(len(entries), replBeatCap)
		msg := &replBeatMsg{Channels: entries[:k:k]}
		entries = entries[k:]
		for _, nb := range neighbors {
			n.queueReplLocked(nb, msgReplBeat, msg)
		}
		n.stats.Replication.Heartbeats += uint64(len(neighbors))
	}
}

// requestResyncLocked asks an owner for full pushes of the listed
// channels. Callers hold n.mu.
func (n *Node) requestResyncLocked(owner pastry.Addr, chans []replBeatEntry) {
	n.queueReplLocked(owner, msgReplBeat, &replBeatMsg{Resync: true, Channels: chans})
	n.stats.Replication.Resyncs++
}

// handleReplDelta applies one subscriber change at a replica, or asks the
// owner for a full push when the change does not follow from the state
// held: another epoch, a Seq gap, a digest that disagrees after the
// change, or a receiver that does not mirror this owner. A delta at or
// below the Seq held is one a full push already covered, and is dropped.
// While a resync is outstanding the deltas behind the gap ask nothing
// more; the full push clears the mark, and the next heartbeat re-asks if
// it was lost.
func (n *Node) handleReplDelta(msg pastry.Message, p *replDeltaMsg) {
	if msg.From.ID == n.Self().ID {
		return
	}
	n.mu.Lock()
	ch := n.getChannel(p.URL)
	if ch.isReplica && !ch.isOwner && ch.ownerEpoch == p.OwnerEpoch {
		if p.Seq <= ch.replSeq {
			n.mu.Unlock()
			return
		}
		if p.Seq == ch.replSeq+1 && ch.subs.digestAfter(p.Client, p.Entry, p.Remove) == p.Digest {
			if p.Remove {
				ch.subs.remove(p.Client)
			} else {
				ch.subs.add(p.Client, p.Entry)
			}
			ch.replSeq = p.Seq
			ch.ownerSeen = n.now()
			// Journal the one change; the store's subscribe records are
			// idempotent upserts and removals.
			n.emitSubLocked(ch, p.Client, p.Entry, p.Remove)
			n.mu.Unlock()
			return
		}
	}
	if ch.resyncAsked {
		n.mu.Unlock()
		return
	}
	ch.resyncAsked = true
	n.requestResyncLocked(msg.From, []replBeatEntry{{URL: p.URL}})
	n.mu.Unlock()
	n.flushReplication()
}

// handleReplBeat runs a heartbeat at a neighbor, or a resync request at
// an owner. A heartbeat entry matching the replica's epoch, Seq and
// digest refreshes its owner-liveness clock and scalar fields, and is
// journaled only if a scalar moved; every other entry — including one
// for a channel this node owns or roots, which must reach the claim
// handshake — is listed in one resync request back to the sender.
func (n *Node) handleReplBeat(msg pastry.Message, p *replBeatMsg) {
	if msg.From.ID == n.Self().ID {
		return
	}
	// The message proves the sender is alive; fold it into routing state
	// so IsRoot converges (the root check below depends on it).
	n.overlay.Learn(msg.From)
	if p.Resync {
		n.answerResync(msg.From, p.Channels)
		return
	}
	now := n.now()
	var want []replBeatEntry
	n.mu.Lock()
	for i := range p.Channels {
		e := &p.Channels[i]
		ch, known := n.channels[ids.HashString(e.URL)]
		if !known || !ch.isReplica || ch.isOwner || ch.ownerEpoch != e.OwnerEpoch ||
			ch.replSeq != e.Seq || ch.subs.digest() != e.Digest || n.overlay.IsRoot(ch.id) {
			want = append(want, replBeatEntry{URL: e.URL})
			if known {
				ch.resyncAsked = true
			}
			continue
		}
		ch.ownerSeen = now
		if n.adoptBeatLocked(ch, e) {
			n.emitMetaLocked(ch, false)
		}
	}
	if len(want) > 0 {
		n.requestResyncLocked(msg.From, want)
	}
	n.mu.Unlock()
	n.flushReplication()
}

// adoptBeatLocked folds a matching heartbeat entry's scalar fields into
// replica state with the rules a full push applies, and reports whether
// any moved. The count needs no adopting: a matching digest is a
// matching set. Callers hold n.mu.
func (n *Node) adoptBeatLocked(ch *channelState, e *replBeatEntry) bool {
	changed := false
	if ch.sizeBytes != e.SizeBytes {
		ch.sizeBytes = e.SizeBytes
		changed = true
	}
	if e.IntervalSec > 0 && ch.est.ewma == 0 {
		ch.est.ewma = e.IntervalSec
		changed = true
	}
	if e.LastVersion > ch.lastVersion {
		ch.lastVersion = e.LastVersion
		changed = true
	}
	if e.Level >= 0 && e.Epoch >= ch.epoch && (e.Level != ch.level || e.Epoch != ch.epoch) {
		ch.level = e.Level
		ch.epoch = e.Epoch
		changed = true
	}
	return changed
}

// answerResync sends a full push of every listed channel this node owns
// to the replica that asked. Pushes for channels it no longer owns are
// the new owner's to send.
func (n *Node) answerResync(to pastry.Addr, chans []replBeatEntry) {
	n.mu.Lock()
	for i := range chans {
		ch, ok := n.channels[ids.HashString(chans[i].URL)]
		if !ok || !ch.isOwner {
			continue
		}
		n.queueReplLocked(to, msgReplicate, n.buildReplicateLocked(ch))
		n.stats.Replication.FullPushes++
	}
	n.mu.Unlock()
	n.flushReplication()
}
