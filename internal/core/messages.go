package core

import (
	"corona/internal/honeycomb"
	"corona/internal/pastry"
)

// Corona application message types carried over the overlay.
const (
	msgSubscribe = "corona.subscribe"
	msgReplicate = "corona.replicate"
	msgReplDelta = "corona.repldelta"
	msgReplBeat  = "corona.replbeat"
	msgPollCtl   = "corona.pollctl"
	msgUpdate    = "corona.update"
	msgMaintain  = "corona.maintain"
	msgWedgeFwd  = "corona.wedgefwd"
	msgLease     = "corona.lease"

	msgNotifyBatch    = "corona.notifybatch"
	msgDelegate       = "corona.delegate"
	msgDelegateNotify = "corona.delegatenotify"
	msgLeaseExpire    = "corona.leaseexpire"
)

// subscribeMsg is routed through the overlay to the channel's owner
// (paper §3.3: "owners receive subscriptions through the underlying
// overlay, which routes all subscription requests of a channel
// automatically to the node with the closest identifier").
type subscribeMsg struct {
	URL    string
	Client string
	// Entry is the node the client is attached to (its IM access
	// point); the owner sends this client's notifications back through
	// it, the role the paper's centralized IM intermediary plays (§4).
	Entry pastry.Addr
	// Remove distinguishes unsubscribe requests sharing the route path.
	Remove bool
}

// replicatedSub is one subscriber record inside a replicateMsg.
type replicatedSub struct {
	Client string
	Entry  pastry.Addr
}

// notifyBatchMsg carries one update for one or many clients from the
// channel owner (or one of its delegates) to a shared entry node: one
// diff, a list of client handles. The owner's per-update overlay cost is
// proportional to distinct entry nodes rather than subscribers; the entry
// node's notifier re-fans it to the clients' sessions with a single
// shared frame encoding.
type notifyBatchMsg struct {
	URL     string
	Version uint64
	Diff    string
	Clients []string
	// At is the detection timestamp (unix nanoseconds): when the polling
	// node first observed this version. It rides every hop of the
	// notification path unchanged, so each stage can report its latency
	// since detection.
	At int64
}

// replicateMsg carries a channel's whole owner state to the f closest
// neighbors so channel ownership survives failures (§3.3). It is the
// full push: owners send it on promotion and reconquest, as routed
// claims and counter-pushes, on recovery, and in answer to a replica's
// resync request; ordinary subscriber changes travel as replDeltaMsg.
type replicateMsg struct {
	URL string
	// Seq is the owner's replication sequence for the pushed state; a
	// replica adopting the push continues from it.
	Seq uint64
	// Subscribers lists client identities with their entry nodes (nil
	// when the set is empty).
	Subscribers []replicatedSub
	// Count is the subscriber count, len(Subscribers) from an owner.
	Count int
	// SizeBytes and IntervalSec replicate the tradeoff factors.
	SizeBytes   int
	IntervalSec float64
	LastVersion uint64
	Level       int
	Epoch       uint64
	// OwnerEpoch is the sender's ownership fencing token. Every replicate
	// push is an ownership claim at this epoch: a receiver holding a
	// higher epoch rejects the push (and, if it is itself an owner,
	// counter-pushes its own state so the stale claimant demotes
	// immediately), while an owner receiving a higher epoch demotes on
	// receipt instead of waiting for its next IsRoot self-check.
	OwnerEpoch uint64
	// FromOwner marks pushes from a node holding the owner role. Only
	// such claims may take the equal-epoch tie-break against a live
	// owner (the dual-owner merge after a healed partition); a replica's
	// anti-entropy claim at the same epoch must lose it, or a replica
	// whose identifier happens to sit closer to the channel would demote
	// a healthy owner every time its heartbeat went stale.
	FromOwner bool
}

// replDeltaMsg is one subscriber change, sent by a channel's owner to
// each replica. A replica applies it only if it mirrors the owner at
// OwnerEpoch, holds Seq-1, and its digest after the change equals
// Digest; otherwise it asks the owner for a full push.
type replDeltaMsg struct {
	URL        string
	OwnerEpoch uint64
	Seq        uint64
	Digest     uint64
	Client     string
	Entry      pastry.Addr
	Remove     bool
}

// replBeatMsg is an owner's per-round replication heartbeat to one
// neighbor: one entry per channel it owns as root, at most replBeatCap
// entries per message. A replica whose state matches an entry refreshes
// its owner-liveness clock and scalars; any mismatch asks for a full
// push. With Resync set the message travels the other way — a replica
// asking the owner for full pushes of the listed channels — and its
// entries carry only URL.
type replBeatMsg struct {
	Resync   bool
	Channels []replBeatEntry
}

// replBeatEntry summarizes one owned channel in a heartbeat.
type replBeatEntry struct {
	URL         string
	OwnerEpoch  uint64
	Seq         uint64
	Digest      uint64
	Count       int
	LastVersion uint64
	Level       int
	Epoch       uint64
	SizeBytes   int
	IntervalSec float64
}

// pollCtlMsg adjusts a channel's polling level across its wedge. It is
// broadcast along the DAG; receivers poll iff they share Level prefix
// digits with the channel (§3.3).
type pollCtlMsg struct {
	URL   string
	Level int
	// Epoch orders level changes; stale control messages are ignored.
	Epoch uint64
	// Factors piggy-backs the owner's current estimates so wedge members
	// and aggregation stay fresh (§3.3: estimates are carried on
	// maintenance messages through the DAG).
	Q           int
	SizeBytes   int
	IntervalSec float64
}

// updateMsg disseminates a detected update through the channel's wedge
// (§3.4). Diff carries the encoded delta when the detecting node fetched
// a body; an origin that serves versions alone sends none.
type updateMsg struct {
	URL     string
	Version uint64
	// Diff is the encoded delta (empty when the origin sent no body).
	Diff string
	// Bytes is the transfer size for load accounting.
	Bytes int
	// OwnerEpoch, when non-zero, marks an owner-originated dissemination
	// and carries the sender's ownership fencing token, so a node still
	// holding a stale isOwner flag learns of its demotion from ordinary
	// update traffic (the poll-answer path) rather than from the next
	// replication round. Zero on updates from plain wedge members.
	OwnerEpoch uint64
	// Owner is the claiming owner's address, set iff OwnerEpoch is
	// non-zero. The claim must identify its claimant explicitly: wedge
	// forwarding re-broadcasts updates with the envelope From rewritten
	// to the forwarding member, so From cannot serve as the tie-break
	// identity or the counter-push target.
	Owner pastry.Addr
}

// wedgeFwdMsg delegates a wedge broadcast to a node closer (in prefix
// digits) to the channel than the sender. The owner is the numerically
// closest node to the channel identifier, but near digit boundaries it may
// share fewer prefix digits than other nodes; wedge operations then hop
// along routing-table prefix contacts until a true wedge member performs
// the broadcast. A channel for which no such contact exists has an empty
// wedge — the paper's orphan (§4).
type wedgeFwdMsg struct {
	URL   string
	Level int
	// InnerType and one of the payloads carry the wrapped operation.
	InnerType string
	PollCtl   *pollCtlMsg
	Update    *updateMsg
}

// leaseMsg is an entry-node liveness heartbeat routed to a channel's
// owner: the entry node Entry vouches that Client is attached to it and
// still wants URL. The owner refreshes the subscriber's lease timestamp
// and — the failover half — re-points the client's entry record when the
// client reappears behind a different node, without a Subscribe replay.
// The refresh is an idempotent subscription assert: an owner that lost
// the subscriber (in-memory restart) re-creates it from the heartbeat.
type leaseMsg struct {
	URL    string
	Client string
	Entry  pastry.Addr
}

// leaseExpireMsg is the delegate-side half of dead-entry repair: on a
// peer fault, handlePeerFault at a delegate reports the clients of its
// partition whose entry is the dead node to the channel's owner, which
// force-expires their leases (the owner never sends to a delegated
// client's entry itself, so its own faults cannot discover the death).
// Entry names the dead node; the owner ignores clients whose entry
// record has already moved elsewhere, so a stale report cannot churn a
// repaired subscription.
type leaseExpireMsg struct {
	URL     string
	Entry   pastry.Addr
	Clients []string
}

// delegateMsg installs (or revokes) a fan-out partition on a delegate: a
// hot channel's owner hands each recruited leaf-set node a disjoint slice
// of the subscriber entry records so updates can be disseminated with one
// message per delegate instead of one per entry node. OwnerEpoch fences
// the delegation exactly like replication claims: a delegate ignores
// pushes older than the epoch it last accepted, and a push at a newer
// epoch displaces the old partition wholesale. Replace pushes carry the
// full partition (the self-stabilizing refresh sent every maintenance
// round); incremental pushes upsert Subs and delete Removed, keeping the
// partition current between refreshes.
type delegateMsg struct {
	URL        string
	OwnerEpoch uint64
	Owner      pastry.Addr
	// Seq is the owner's roster revision within OwnerEpoch. A delegate
	// ignores pushes whose (OwnerEpoch, Seq) is older than the last it
	// accepted, so a push from a superseded roster — delayed in flight,
	// or emitted by a periodic refresh that raced a fault-triggered
	// re-partition — cannot overwrite a newer partition.
	Seq uint64
	// Replace marks a wholesale partition replacement; otherwise Subs
	// upsert into and Removed delete from the existing partition.
	Replace bool
	// Revoke dissolves the delegation (channel cooled below threshold or
	// the owner demoted); Subs and Removed are ignored.
	Revoke  bool
	Subs    []replicatedSub
	Removed []string
}

// delegateNotifyMsg is the owner's one-message-per-delegate update
// dissemination: the delegate fans the diff out to the entry nodes of its
// stored partition. OwnerEpoch must match (or exceed) the delegation
// epoch the delegate holds, so a revoked or superseded delegate never
// notifies from a stale partition.
type delegateNotifyMsg struct {
	URL        string
	Version    uint64
	Diff       string
	OwnerEpoch uint64
	// At is the detection timestamp (unix nanoseconds); see notifyBatchMsg.At.
	At int64
}

// maintainMsg is the periodic exchange with routing-table contacts: the
// sender's aggregate of tradeoff clusters for its prefix subtree
// (§3.2-§3.3). Row tells the receiver which subtree depth the aggregate
// summarizes.
type maintainMsg struct {
	// Row is the routing-table row this message was sent along: the
	// aggregate summarizes channels owned by nodes sharing Row+1 prefix
	// digits with the sender.
	Row int
	// Clusters is the subtree aggregate.
	Clusters *honeycomb.ClusterSet
}
