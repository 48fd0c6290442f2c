package pastry

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"corona/internal/ids"
)

// Protocol message types used internally by the overlay.
const (
	msgJoin         = "pastry.join"
	msgJoinReply    = "pastry.join_reply"
	msgStateRequest = "pastry.state_request"
	msgStateReply   = "pastry.state_reply"
)

// joinPayload travels with a join request as it is routed toward the
// joining node's own identifier; nodes along the path contribute the
// routing rows relevant to the joiner.
type joinPayload struct {
	Joiner Addr
	Rows   []Addr // accumulated contacts from path nodes
}

// statePayload carries a snapshot of a node's routing state.
type statePayload struct {
	Leaves []Addr
	Table  []Addr
}

// Bootstrap initializes this node as the first member of a new ring.
func (n *Node) Bootstrap() {
	n.markJoined()
}

// markJoined closes joined unless it already is, and ends every pending
// JoinWait.
func (n *Node) markJoined() {
	n.mu.Lock()
	if !n.Joined() {
		close(n.joined)
	}
	n.announce = nil
	waits := n.joinWaits
	n.joinWaits = nil
	n.mu.Unlock()
	for _, w := range waits {
		w.done(true)
	}
}

// answered records that a member this node announced itself to has
// learned it, or has died, and completes the join once none is left.
func (n *Node) answered(id ids.ID) {
	n.mu.Lock()
	_, pending := n.announce[id]
	delete(n.announce, id)
	done := pending && len(n.announce) == 0
	n.mu.Unlock()
	if done {
		n.markJoined()
	}
}

// Join enters the ring through the given seed node: the join request is
// routed to the node closest to our identifier, path nodes contribute
// routing rows, and the root replies with its leaf set (paper [25] §5).
func (n *Node) Join(seed Addr) error {
	if seed.IsZero() {
		return fmt.Errorf("pastry: empty seed address")
	}
	n.Learn(seed)
	msg := Message{
		Type: msgJoin,
		Key:  n.self.ID,
		From: n.self,
		Payload: &joinPayload{
			Joiner: n.self,
		},
	}
	return n.send(seed, msg)
}

// Joined reports whether the node has completed a Join or Bootstrap. A
// Join completes when the join reply has landed and every member the
// reply taught this node has answered its announcement, so the members
// it knows of also know it.
func (n *Node) Joined() bool {
	select {
	case <-n.joined:
		return true
	default:
		return false
	}
}

// joinWait is one pending JoinWait: done runs once, with the outcome.
type joinWait struct{ done func(joined bool) }

// JoinWait joins through seed and calls done once with whether the node
// joined: true the moment the join completes (at once if the node has
// already joined), false if the first join cannot be sent or timeout
// passes without a reply. Until the reply lands the join is re-sent
// every resend: a reply can vanish into a stale one-directional
// connection at the seed (a restarted node rejoining on its old address
// is exactly that case), and the join protocol itself is
// fire-and-forget. Once it has landed, a member that leaves the
// announcement unanswered holds the join up until the next re-send tick
// at most. The timers run on the node's clock, and done runs on the
// goroutine that completes the join (a delivery or a timer), holding no
// overlay lock, so a callback on a simulator clock never blocks. Once the
// node has joined, a pending re-send timer fires once more and does
// nothing.
func (n *Node) JoinWait(seed Addr, resend, timeout time.Duration, done func(joined bool)) {
	w := &joinWait{done: done}
	n.mu.Lock()
	joined := n.Joined()
	if !joined {
		n.joinWaits = append(n.joinWaits, w)
	}
	n.mu.Unlock()
	if joined {
		done(true)
		return
	}
	if err := n.Join(seed); err != nil {
		n.failJoinWait(w)
		return
	}
	deadline := n.clk.Now().Add(timeout)
	var tick func()
	tick = func() {
		if n.Joined() {
			return
		}
		n.mu.RLock()
		replied := n.announce != nil
		n.mu.RUnlock()
		if replied {
			// The reply landed but a member has not answered for a whole
			// re-send period; it need not hold the join up any longer.
			n.markJoined()
			return
		}
		left := deadline.Sub(n.clk.Now())
		if left <= 0 {
			n.failJoinWait(w)
			return
		}
		n.Join(seed)
		n.clk.AfterFunc(min(resend, left), tick)
	}
	n.clk.AfterFunc(min(resend, timeout), tick)
}

// failJoinWait ends a JoinWait with false unless markJoined has already
// ended it with true.
func (n *Node) failJoinWait(w *joinWait) {
	n.mu.Lock()
	i := slices.Index(n.joinWaits, w)
	if i >= 0 {
		n.joinWaits = slices.Delete(n.joinWaits, i, i+1)
	}
	n.mu.Unlock()
	if i >= 0 {
		w.done(false)
	}
}

func (n *Node) handleJoin(msg Message, p *joinPayload) {
	// Contribute the routing row the joiner will index at our shared
	// prefix depth, plus ourselves.
	row := ids.CommonPrefix(n.self.ID, p.Joiner.ID)
	contribution := append([]Addr{n.self}, n.RowContacts(row)...)
	if row > 0 {
		// Shallower rows help too when the joiner's table is empty.
		contribution = append(contribution, n.RowContacts(0)...)
	}
	p.Rows = append(p.Rows, contribution...)

	// Forward before learning the joiner: the join root is the closest
	// *existing* member, never the joiner itself (which a re-sent join
	// finds already known).
	forwarded := n.forward(msg, p.Joiner.ID)
	n.Learn(p.Joiner)
	if forwarded {
		return
	}
	// We are the root for the joiner's identifier: send back our state
	// and the accumulated rows.
	n.mu.RLock()
	reply := &statePayload{Leaves: append(n.leaves.all(), n.self)}
	n.table.each(func(a Addr) { reply.Table = append(reply.Table, a) })
	reply.Table = append(reply.Table, p.Rows...)
	n.mu.RUnlock()
	n.SendDirect(p.Joiner, msgJoinReply, reply)
}

func (n *Node) handleJoinReply(msg Message, p *statePayload) {
	n.Learn(msg.From)
	for _, a := range p.Leaves {
		n.Learn(a)
	}
	for _, a := range p.Table {
		n.Learn(a)
	}
	if n.Joined() {
		return
	}
	// Announce ourselves to everyone we just learned about so they can
	// fold us into their own state (Pastry's join broadcast to the new
	// node's leaf set and row contacts). The join completes once each has
	// answered: a node that routed on before they knew it would have its
	// first messages rooted on views that leave it out. A re-sent join's
	// reply announces again.
	known := n.KnownNodes()
	n.mu.Lock()
	n.announce = make(map[ids.ID]struct{}, len(known))
	for _, a := range known {
		n.announce[a.ID] = struct{}{}
	}
	n.mu.Unlock()
	for _, a := range known {
		n.SendDirect(a, msgStateRequest, nil)
	}
}

func (n *Node) handleStateRequest(msg Message, _ *NoPayload) {
	n.Learn(msg.From)
	n.mu.RLock()
	reply := &statePayload{Leaves: append(n.leaves.all(), n.self)}
	n.mu.RUnlock()
	n.SendDirect(msg.From, msgStateReply, reply)
}

func (n *Node) handleStateReply(msg Message, p *statePayload) {
	n.Learn(msg.From)
	for _, a := range p.Leaves {
		n.Learn(a)
	}
	n.answered(msg.From.ID)
}

// Stabilize runs one round of leaf-set anti-entropy: ask one known
// contact, chosen by the caller-supplied draw, for its leaf set (the
// reply is folded in by handleStateReply, and handleStateRequest learns
// the asker symmetrically). Failure-triggered repair alone cannot re-merge
// a healed partition: the two components each evicted every contact they
// tried to reach across the cut, so no send fails anymore and no repair
// ever fires — while each side's ring view stays self-consistently wrong.
// Periodic exchange diffuses the surviving cross-component edges (a
// handshake counter-push, an asymmetric eviction) back around the ring.
func (n *Node) Stabilize(draw int) {
	contacts := n.KnownNodes()
	if len(contacts) == 0 {
		return
	}
	if draw < 0 {
		draw = -draw
	}
	n.SendDirect(contacts[draw%len(contacts)], msgStateRequest, nil)
}

// repairAfterFailure asks surviving contacts for replacement state after a
// peer was evicted (paper §3.3: the overlay self-heals by replacing failed
// contacts with other nodes satisfying the same prefix constraint).
func (n *Node) repairAfterFailure(dead Addr) {
	// Ask a few nearby survivors for their leaf sets; their members will
	// refill both the leaf set and the routing table opportunistically.
	for _, a := range n.Neighbors(2) {
		if a.ID != dead.ID {
			n.SendDirect(a, msgStateRequest, nil)
		}
	}
}

// BuildStaticOverlay wires a set of nodes into a fully converged overlay by
// direct state construction, without running the join protocol. Large-scale
// simulations use it so experiments start from the converged topology the
// paper's simulations assume; the message-driven Join path is exercised by
// integration tests and live deployments.
func BuildStaticOverlay(nodes []*Node) {
	if len(nodes) == 0 {
		return
	}
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].self.ID.Cmp(sorted[j].self.ID) < 0
	})
	// Leaf sets: k nearest on each side in ring order.
	m := len(sorted)
	for i, node := range sorted {
		for d := 1; d <= leafSetSize && d < m; d++ {
			node.leaves.add(sorted[(i+d)%m].self)
			node.leaves.add(sorted[(i-d+m)%m].self)
		}
		node.markJoined()
		node.gen++
	}
	// Routing tables: group nodes by digit prefix. For each node and each
	// row r, the entry at column j is any node whose first r digits match
	// the node's and whose digit r equals j. We index nodes by prefix
	// string to fill tables in O(N * rows * radix) expected time.
	type prefixKey struct {
		depth int
		hash  ids.ID // ID with digits beyond depth zeroed
	}
	index := make(map[prefixKey][]*Node)
	zeroBeyond := func(id ids.ID, depth int) ids.ID {
		for d := depth; d < ids.NumDigits; d++ {
			id = ids.WithDigit(id, d, 0)
		}
		return id
	}
	for _, node := range sorted {
		for depth := 1; depth <= MaxTableRows; depth++ {
			k := prefixKey{depth: depth, hash: zeroBeyond(node.self.ID, depth)}
			index[k] = append(index[k], node)
		}
	}
	for _, node := range sorted {
		for row := 0; row < MaxTableRows; row++ {
			for col := 0; col < ids.Radix; col++ {
				if ids.Digit(node.self.ID, row) == col {
					continue // that prefix is this node's own
				}
				want := ids.WithDigit(node.self.ID, row, col)
				k := prefixKey{depth: row + 1, hash: zeroBeyond(want, row+1)}
				candidates := index[k]
				if len(candidates) == 0 {
					continue
				}
				// Deterministic pick: spread choices by hashing the
				// chooser so entries differ between nodes.
				pick := candidates[int(node.self.ID[0])%len(candidates)]
				if node.table.add(pick.self) {
					node.gen++
				}
			}
		}
	}
}
