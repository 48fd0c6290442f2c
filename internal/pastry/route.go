package pastry

import "corona/internal/ids"

// nextHop computes the next hop toward key, returning ok=false when this
// node is the root (numerically closest known node) for the key.
//
// The procedure is standard Pastry (paper [25]): if the key is covered by
// the leaf set, deliver to the numerically closest leaf (or self);
// otherwise forward to the routing table entry sharing one more prefix
// digit with the key; if that entry is missing, fall back to any known node
// that is numerically closer and shares at least as long a prefix.
func (n *Node) nextHop(key ids.ID) (Addr, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()

	if key == n.self.ID {
		return Addr{}, false
	}
	if n.leaves.coversKey(key) {
		addr, isSelf := n.leaves.closestToKey(key)
		if isSelf {
			return Addr{}, false
		}
		return addr, true
	}
	prefixLen := ids.CommonPrefix(n.self.ID, key)
	if e := n.table.bestForKey(key); !e.IsZero() {
		return e, true
	}
	// Rare case: the exact entry is missing. Use any strictly closer node
	// with at least the same shared prefix, searching the routing table
	// and the leaf set.
	if e := n.table.closerThanSelf(key, prefixLen); !e.IsZero() {
		return e, true
	}
	selfDist := n.self.ID.Distance(key)
	var best Addr
	bestDist := selfDist
	for _, a := range n.leaves.all() {
		if ids.CommonPrefix(a.ID, key) < prefixLen {
			continue
		}
		if d := a.ID.Distance(key); d.Cmp(bestDist) < 0 {
			best, bestDist = a, d
		}
	}
	if !best.IsZero() {
		return best, true
	}
	return Addr{}, false
}

// forward sends msg one hop toward msg.Key, the one forwarding loop of
// routed messages, joins and Route alike. A synchronous send failure has
// already evicted the dead hop (inside send), so it retries against the
// post-eviction tables instead of dropping the message: each failure
// strictly shrinks the candidate set. It reports false, having sent
// nothing, once no hop remains — this node is the root and the message
// belongs here — or the next hop is stop. Without the retry, every
// message racing a node death is lost at whichever hop still lists the
// corpse.
func (n *Node) forward(msg Message, stop ids.ID) bool {
	msg.Hops++
	for detached := false; ; detached = true {
		next, ok := n.nextHop(msg.Key)
		if !ok || next.ID == stop {
			return false
		}
		if !detached {
			msg.detachRaw() // the send outlives the receive buffer
		}
		if n.send(next, msg) == nil {
			return true
		}
	}
}

// IsRoot reports whether this node is currently the root for key: the
// numerically closest node it knows of. Channel ownership in Corona is
// exactly rootship of the channel identifier (paper §3.3).
func (n *Node) IsRoot(key ids.ID) bool {
	_, more := n.nextHop(key)
	return !more
}

// Learn incorporates a peer into the routing state opportunistically.
// Pastry learns from every message it sees; Corona additionally feeds in
// contacts carried on maintenance messages.
func (n *Node) Learn(addr Addr) {
	if addr.IsZero() || addr.ID == n.self.ID {
		return
	}
	n.mu.Lock()
	changed := n.table.add(addr)
	if n.leaves.add(addr) || changed {
		n.gen++
	}
	n.mu.Unlock()
}

// peerFailed handles one reported delivery failure. A peer still in the
// routing state is evicted and repaired around, once; the application
// fault callback runs on every report, evicted or not, so a peer the
// application keeps addressing (an entry node no table lists) is
// repaired around however its death was observed.
func (n *Node) peerFailed(dead Addr) {
	n.mu.Lock()
	removedTable := n.table.remove(dead.ID)
	removedLeaf := n.leaves.remove(dead.ID)
	evicted := removedTable || removedLeaf
	if evicted {
		n.stats.Repairs++
		n.gen++
	}
	cb := n.onFault
	n.mu.Unlock()
	if evicted {
		n.repairAfterFailure(dead)
	}
	if cb != nil {
		cb(dead)
	}
	n.answered(dead.ID) // a dead member need not learn of a joiner
}
