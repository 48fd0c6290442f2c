package pastry

// Broadcast disseminates an application message to every node sharing at
// least `level` prefix digits with key — the level-l wedge of the channel
// (paper §3.1, §3.4: "the node simply disseminates the diff along the DAG
// rooted at it up to a depth equal to the polling level of the channel").
//
// The initiating node must itself belong to the wedge. The flood follows
// the routing-table DAG: the initiator sends to its row-r contacts for
// every r ≥ level; a recipient that received the message via a row-r edge
// forwards only along rows ≥ r+1, which partitions the wedge and delivers
// each member exactly once when routing tables are converged.
//
// The message is also delivered to the local handler, since the initiator
// is a wedge member.
func (n *Node) Broadcast(level int, msgType string, payload Payload) {
	if level < 0 {
		level = 0
	}
	msg := Message{
		Type:    msgType,
		From:    n.self,
		Cover:   level + 1, // stored as depth+1 so zero means "not a broadcast"
		Payload: payload,
	}
	n.mu.Lock()
	n.stats.BroadcastsSent++
	n.mu.Unlock()
	n.fanOut(msg, level)
	n.deliverLocal(msg)
}

// forwardBroadcast re-forwards a received broadcast deeper into the DAG.
// msg.Cover-1 is the first routing row this node is responsible for. The
// payload is never decoded here: the retained wire blob (and, across
// contacts, the whole encoded prefix) is re-sent verbatim.
func (n *Node) forwardBroadcast(msg Message) {
	n.fanOut(msg, msg.Cover-1)
}

// hop is one fan-out destination with its coverage tag.
type hop struct {
	to    Addr
	cover int
}

// fanOut sends copies of msg to all routing contacts in rows >= fromRow,
// tagging each copy with the recipient's own coverage depth.
//
// The destination list is gathered under RLock into a pooled scratch
// buffer sized from the table's row occupancy, so a broadcast storm does
// not allocate a fresh slice (or grow it) per message while holding the
// lock. All copies share one encode-once cell and one copy of a
// forwarded payload blob: a codec encodes the envelope-plus-payload
// prefix a single time and only the varint Hops/Cover trailer is written
// per contact.
func (n *Node) fanOut(msg Message, fromRow int) {
	hops, _ := n.fanScratch.Get().(*[]hop)
	if hops == nil {
		hops = new([]hop)
	}
	n.mu.RLock()
	if fromRow < 0 {
		fromRow = 0
	}
	if need := n.table.contactCount(fromRow); cap(*hops) < need {
		*hops = make([]hop, 0, need)
	} else {
		*hops = (*hops)[:0]
	}
	for r := fromRow; r < MaxTableRows; r++ {
		n.table.eachInRow(r, func(a Addr) {
			*hops = append(*hops, hop{to: a, cover: r + 2}) // depth r+1, stored +1
		})
	}
	n.mu.RUnlock()
	if len(*hops) > 0 {
		msg.Hops++ // same for every contact; only Cover varies below
		msg.ShareEncoding()
		// A forwarded blob aliases the transport's receive buffer, which
		// the queued sends outlive: copy it once for all contacts. The
		// caller's msg keeps the alias for its local delivery.
		msg.detachRaw()
		for _, h := range *hops {
			out := msg
			out.Cover = h.cover
			n.send(h.to, out)
		}
	}
	*hops = (*hops)[:0]
	n.fanScratch.Put(hops)
}
