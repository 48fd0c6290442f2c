package clientproto

import (
	"fmt"
	"time"
)

// Notification is one structured update notification: what the node
// detected, addressed to one subscriber. Each edge encodes it in its own
// framing: a binary frame, a JSON event, or the line protocol's text.
type Notification struct {
	// Client is the subscriber handle the notification is addressed to.
	Client string
	// Channel is the subscribed URL.
	Channel string
	// Version is the content version detected.
	Version uint64
	// Diff is the delta-encoded change (see internal/diffengine).
	Diff string
	// At is the update's detection timestamp when the notifying node
	// carried one, else the registry's emission time — either way the
	// best anchor the delivery layer has for end-to-end latency.
	At time.Time
	// Shared is the per-batch cell a delivery layer uses to encode the
	// notification once and reuse the result for every client in the
	// batch (the encoded body excludes Client, so the bytes are
	// identical). Deliverers for the same batch run sequentially on one
	// goroutine, so the cell needs no locking — but for exactly that
	// reason a deliverer must only touch the cell (and the
	// Notification's Shared pointer) synchronously, before it returns: a
	// deliverer that hands the cell to another goroutine races the next
	// deliverer's Store. TestNotifyBatchAttachDetachRace pins the
	// contract.
	Shared *Shared
}

// Shared is the batch-scoped encode-once cell. With several edges
// serving one node, one batch can have more than one delivery layer
// encoding it (a wire frame, a JSON event, a line of text), so the cell
// holds one slot per consumer, keyed by a pointer each consumer owns; a
// slot is appended the first time its consumer stores. The registry
// only allocates the cell; deliverers for one batch run sequentially,
// so Load/Store need no locking.
type Shared struct {
	slots []sharedSlot
}

type sharedSlot struct {
	key, val any
}

// Load returns the value the batch's earlier deliverers stored under
// key, nil if none did.
func (s *Shared) Load(key any) any {
	for _, sl := range s.slots {
		if sl.key == key {
			return sl.val
		}
	}
	return nil
}

// Store saves val under key for the batch's later deliverers.
func (s *Shared) Store(key, val any) {
	for i := range s.slots {
		if s.slots[i].key == key {
			s.slots[i].val = val
			return
		}
	}
	s.slots = append(s.slots, sharedSlot{key: key, val: val})
}

// LegacyBody renders the notification as the prototype's IM message text
// ("UPDATE <url> v<version>" followed by the diff), the wire form the
// line protocol has always carried.
func (n Notification) LegacyBody() string {
	return fmt.Sprintf("UPDATE %s v%d\n%s", n.Channel, n.Version, n.Diff)
}
