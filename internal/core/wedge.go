package core

import (
	"corona/internal/ids"
	"corona/internal/pastry"
)

// sendToWedge delivers a wedge-scoped operation (poll control or update
// dissemination) to every member of the channel's level-l wedge. When
// this node belongs to the wedge it runs the DAG broadcast directly;
// otherwise it forwards the operation along prefix contacts toward the
// wedge (§3.3's owner-rooted control path generalized across digit
// boundaries). It reports false when no path into the wedge exists — the
// wedge is empty and the channel is effectively an orphan (§4).
func (n *Node) sendToWedge(channelID ids.ID, url string, level int, innerType string, pollCtl *pollCtlMsg, update *updateMsg) bool {
	self := n.Self().ID
	if ids.InWedge(self, channelID, level) {
		switch innerType {
		case msgPollCtl:
			n.overlay.Broadcast(level, msgPollCtl, pollCtl)
		case msgUpdate:
			n.overlay.Broadcast(level, msgUpdate, update)
		}
		return true
	}
	// Hop one digit closer to the channel's prefix region. True means
	// "handed to the transport", not "delivered": under async transports
	// a dead contact surfaces through the fault callback and the next
	// maintenance round retries with a repaired table.
	p := ids.CommonPrefix(self, channelID)
	contact := n.overlay.RoutingEntry(p, ids.Digit(channelID, p))
	if contact.IsZero() {
		return false
	}
	n.overlay.SendDirect(contact, msgWedgeFwd, &wedgeFwdMsg{
		URL:       url,
		Level:     level,
		InnerType: innerType,
		PollCtl:   pollCtl,
		Update:    update,
	})
	return true
}

// handleWedgeFwd continues a delegated wedge delivery: wedge members
// perform the broadcast, closer non-members forward again, dead ends drop
// the message (next maintenance round retries).
func (n *Node) handleWedgeFwd(msg pastry.Message, p *wedgeFwdMsg) {
	id := ids.HashString(p.URL)
	n.sendToWedge(id, p.URL, p.Level, p.InnerType, p.PollCtl, p.Update)
}

// wedgeReachable reports whether this node can deliver into the channel's
// level wedge: it is a member, or it knows a prefix contact one digit
// closer. Owners use it to classify orphans (§4: "there are no nodes with
// enough matching prefix digits in the system").
func (n *Node) wedgeReachable(channelID ids.ID, level int) bool {
	self := n.Self().ID
	if ids.InWedge(self, channelID, level) {
		return true
	}
	p := ids.CommonPrefix(self, channelID)
	return !n.overlay.RoutingEntry(p, ids.Digit(channelID, p)).IsZero()
}
