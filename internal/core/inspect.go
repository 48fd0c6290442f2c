package core

import (
	"sort"
	"time"

	"corona/internal/ids"
	"corona/internal/pastry"
)

// ChannelRecords is a deep, read-only snapshot of the subscription-routing
// state one node holds for one channel: the owner-side entry records,
// lease marks, and delegate roster, and the delegate-side partition. The
// chaos invariant checker sweeps these across all live nodes to assert the
// ownership/lease/delegation guarantees as machine-checked postconditions;
// tests use them to observe state the counter-based ChannelInfo summary
// collapses.
type ChannelRecords struct {
	URL            string
	Owner          bool
	Replica        bool
	OwnerEpoch     uint64
	LastVersion    uint64
	ContentVersion uint64 // the version of the content held to diff against
	Polling        bool

	// The channel's polling level as this node believes it, and — when
	// this node polls — its poll slot: PollSlot is its rank k among the
	// Pollers (m) it polls beside, or -1 when it does not know the whole
	// wedge and places itself by identifier, in which case Pollers counts
	// only the pollers it knows of. A node that does not poll reports
	// PollSlot -1 and Pollers 0.
	Level    int
	Pollers  int
	PollSlot int

	// Owner-side records. Subscribers maps client → entry record, and
	// SubscriberCount is its size (at a wedge member holding no
	// identities, the owner's Q from poll control). OwnEntries is the
	// owner's slot of the sharded set when delegates carry the rest (nil
	// when unsharded).
	Subscribers     map[string]pastry.Addr
	SubscriberCount int
	Leases          map[string]time.Time
	Unsubbed        map[string]time.Time
	Delegates       []pastry.Addr
	DelegateSeq     uint64
	OwnEntries      map[string]pastry.Addr

	// Delegate-side records: the partition this node fans out on another
	// owner's behalf, with the (epoch, seq) fencing pair that installed it.
	DelegateFrom      pastry.Addr
	DelegateEpoch     uint64
	DelegateSeqSeen   uint64
	DelegatePartition map[string]pastry.Addr
}

// DelegateSlot exposes the fan-out partition function for invariant
// checkers: the slot (0 = the owner's own slice, 1..slots-1 = the
// delegates in roster order) a client's entry record belongs to when the
// channel is sharded over the given number of slots.
func DelegateSlot(client string, slots int) int {
	return delegateSlot(client, slots)
}

func copyAddrMap(m map[string]pastry.Addr) map[string]pastry.Addr {
	if m == nil {
		return nil
	}
	out := make(map[string]pastry.Addr, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyTimeMap(m map[string]time.Time) map[string]time.Time {
	if m == nil {
		return nil
	}
	out := make(map[string]time.Time, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (ch *channelState) recordsLocked() ChannelRecords {
	pollers, slot := 0, -1
	if ch.polling {
		pollers, slot = ch.slotPollers, ch.slotRank
	}
	return ChannelRecords{
		URL:             ch.url,
		Owner:           ch.isOwner,
		Replica:         ch.isReplica,
		OwnerEpoch:      ch.ownerEpoch,
		LastVersion:     ch.lastVersion,
		ContentVersion:  ch.contentVersion,
		Polling:         ch.polling,
		Level:           ch.level,
		Pollers:         pollers,
		PollSlot:        slot,
		Subscribers:     copyAddrMap(ch.subs.ids),
		SubscriberCount: ch.subs.count,
		Leases:          copyTimeMap(ch.leases),
		Unsubbed:        copyTimeMap(ch.unsubbed),
		Delegates:       append([]pastry.Addr(nil), ch.delegates...),
		DelegateSeq:     ch.delegSeq,
		OwnEntries:      copyAddrMap(ch.ownEntries),

		DelegateFrom:      ch.delegFrom,
		DelegateEpoch:     ch.delegEpoch,
		DelegateSeqSeen:   ch.delegSeqSeen,
		DelegatePartition: copyAddrMap(ch.delegSubs),
	}
}

// Records returns the node's deep routing-state snapshot for one channel.
func (n *Node) Records(url string) (ChannelRecords, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ch, ok := n.channels[ids.HashString(url)]
	if !ok {
		return ChannelRecords{}, false
	}
	return ch.recordsLocked(), true
}

// EachChannel visits a routing-state snapshot of every channel this node
// tracks. Snapshots are deep-copied under the node lock first, then
// visited without it, so the visitor may call back into the node.
func (n *Node) EachChannel(visit func(ChannelRecords)) {
	n.mu.Lock()
	snaps := make([]ChannelRecords, 0, len(n.channels))
	for _, ch := range n.channels {
		snaps = append(snaps, ch.recordsLocked())
	}
	n.mu.Unlock()
	// Visit in URL order, not map order: the chaos harness folds visitor
	// output into seeded-run reports, which must be rerun-stable.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].URL < snaps[j].URL })
	for _, s := range snaps {
		visit(s)
	}
}
