package store

import (
	"fmt"
	"sort"

	"corona/internal/ids"
	"corona/internal/wirebin"
)

// Op identifies a record kind in the WAL.
type Op uint8

const (
	// OpSubscribe adds or refreshes one subscriber of a channel.
	OpSubscribe Op = 1
	// OpUnsubscribe removes one subscriber of a channel.
	OpUnsubscribe Op = 2
	// OpMeta upserts channel metadata (ownership, level, epoch, version,
	// tradeoff factors) and, when ReplaceSubs is set, replaces the durable
	// subscriber set wholesale.
	OpMeta Op = 3
	// OpVersion advances a channel's last observed content version.
	OpVersion Op = 4
	// OpSubsChunk upserts a batch of subscribers without touching the
	// rest of the set. Append splits oversized OpMeta subscriber
	// replacements into one capped OpMeta followed by OpSubsChunk
	// records, so no WAL frame outgrows MaxRecordBytes.
	OpSubsChunk Op = 5
	// OpOwnerEpoch advances a channel's ownership fencing epoch (the
	// monotonic counter the owner-epoch handshake compares; see
	// internal/core). Applied as a max, like OpVersion.
	OpOwnerEpoch Op = 6
	// OpLease marks one subscriber as living under entry-node lease
	// discipline, with the time its entry last proved liveness for it.
	// A zero UnixNano is a lease clear: the mark is removed (the owner
	// gave up on the entry and re-routed it; lease discipline must not
	// resurrect on restart for a client that may never heartbeat again).
	OpLease Op = 7
	// OpDelegates replaces a hot channel's fan-out delegate roster
	// wholesale (an empty list clears it). Only the roster is durable:
	// the per-delegate partitions are a pure function of the subscriber
	// set and the roster, so recovery rebuilds them instead of logging
	// every partition push.
	OpDelegates Op = 8
)

// Sub is one durable subscriber: the client identity plus the overlay
// address of its entry node, which delivers its notifications.
type Sub struct {
	Client        string
	EntryID       ids.ID
	EntryEndpoint string
}

// Lease is one durable entry-node lease mark: the subscriber it covers
// and when its entry node last proved liveness for it (Unix nanoseconds).
// Recovery treats the timestamp as advisory — a restarted owner grants a
// fresh grace window — so the mark's real payload is which subscribers
// are under lease discipline at all.
type Lease struct {
	Client   string
	UnixNano int64
}

// Delegate is one durable fan-out delegate: the overlay address of a
// node the channel's owner recruited to disseminate updates for a share
// of the subscriber set.
type Delegate struct {
	ID       ids.ID
	Endpoint string
}

// Record is one logged state mutation. Which fields are meaningful
// depends on Op; the rest are ignored by apply and omitted from the
// encoding.
type Record struct {
	Op  Op
	URL string

	// OpSubscribe / OpUnsubscribe.
	Sub Sub

	// OpMeta; Subs is shared with OpSubsChunk.
	Owner       bool
	Replica     bool
	Level       int
	Epoch       uint64
	Count       int
	SizeBytes   int
	IntervalSec float64
	ReplaceSubs bool
	Subs        []Sub

	// OpMeta and OpVersion.
	Version uint64

	// OpOwnerEpoch.
	OwnerEpoch uint64

	// OpLease.
	Lease Lease

	// OpDelegates.
	Delegates []Delegate
}

// Sink receives state-change records; core.Node holds one (nil when the
// node runs without durability, so simulations pay nothing).
type Sink interface {
	StateChanged(rec Record)
}

// Channel is the materialized durable image of one channel — the unit of
// snapshots and of recovery.
type Channel struct {
	URL         string
	Owner       bool
	Replica     bool
	Level       int
	Epoch       uint64
	OwnerEpoch  uint64
	Version     uint64
	Count       int
	SizeBytes   int
	IntervalSec float64
	Subs        []Sub
	Leases      []Lease
	Delegates   []Delegate

	// index maps client to Subs position, built lazily once the set is
	// large enough that linear scans hurt. Never serialized.
	index map[string]int
}

// indexThreshold is the subscriber-set size past which a channel keeps a
// client index instead of scanning.
const indexThreshold = 64

// subIndex returns the position of client in Subs, or -1. Past
// indexThreshold subscribers it builds and consults the client index
// instead of scanning.
func (ch *Channel) subIndex(client string) int {
	if ch.index == nil && len(ch.Subs) >= indexThreshold {
		ch.index = make(map[string]int, len(ch.Subs))
		for i := range ch.Subs {
			ch.index[ch.Subs[i].Client] = i
		}
	}
	if ch.index != nil {
		if i, ok := ch.index[client]; ok {
			return i
		}
		return -1
	}
	for i := range ch.Subs {
		if ch.Subs[i].Client == client {
			return i
		}
	}
	return -1
}

// upsertSub adds or refreshes one subscriber.
func (ch *Channel) upsertSub(s Sub) {
	if i := ch.subIndex(s.Client); i >= 0 {
		ch.Subs[i] = s
		return
	}
	if ch.index != nil {
		ch.index[s.Client] = len(ch.Subs)
	}
	ch.Subs = append(ch.Subs, s)
}

// removeSub deletes one subscriber by client identity.
func (ch *Channel) removeSub(client string) {
	i := ch.subIndex(client)
	if i < 0 {
		return
	}
	ch.Subs = append(ch.Subs[:i], ch.Subs[i+1:]...)
	if ch.index != nil {
		delete(ch.index, client)
		for j := i; j < len(ch.Subs); j++ {
			ch.index[ch.Subs[j].Client] = j
		}
	}
}

// replaceSubs installs a whole new subscriber set and prunes lease marks
// for clients no longer in it.
func (ch *Channel) replaceSubs(subs []Sub) {
	ch.Subs = append([]Sub(nil), subs...)
	ch.index = nil
	ch.pruneLeases()
}

// upsertLease adds or refreshes one lease mark.
func (ch *Channel) upsertLease(l Lease) {
	for i := range ch.Leases {
		if ch.Leases[i].Client == l.Client {
			ch.Leases[i] = l
			return
		}
	}
	ch.Leases = append(ch.Leases, l)
}

// removeLease drops one client's lease mark.
func (ch *Channel) removeLease(client string) {
	for i := range ch.Leases {
		if ch.Leases[i].Client == client {
			ch.Leases = append(ch.Leases[:i], ch.Leases[i+1:]...)
			return
		}
	}
}

// pruneLeases drops lease marks for clients not in the subscriber set.
func (ch *Channel) pruneLeases() {
	if len(ch.Leases) == 0 {
		return
	}
	keep := ch.Leases[:0]
	for _, l := range ch.Leases {
		for i := range ch.Subs {
			if ch.Subs[i].Client == l.Client {
				keep = append(keep, l)
				break
			}
		}
	}
	ch.Leases = keep
}

// OpMeta flag bits.
const (
	metaOwner   = 1 << 0
	metaReplica = 1 << 1
	metaSubs    = 1 << 2
)

func appendSub(dst []byte, s Sub) []byte {
	dst = wirebin.AppendString(dst, s.Client)
	dst = append(dst, s.EntryID[:]...)
	return wirebin.AppendString(dst, s.EntryEndpoint)
}

func readSub(r *wirebin.Reader) Sub {
	var s Sub
	s.Client = r.String()
	copy(s.EntryID[:], r.Take(ids.Bytes))
	s.EntryEndpoint = r.String()
	return s
}

func appendDelegates(dst []byte, ds []Delegate) []byte {
	dst = wirebin.AppendUvarint(dst, uint64(len(ds)))
	for _, d := range ds {
		dst = append(dst, d.ID[:]...)
		dst = wirebin.AppendString(dst, d.Endpoint)
	}
	return dst
}

// readDelegates reads a count-prefixed delegate list; each delegate costs
// at least the 20-byte identifier and one endpoint length byte.
func readDelegates(r *wirebin.Reader) []Delegate {
	n := r.ListLen(ids.Bytes + 1)
	if r.Err() != nil || n == 0 {
		return nil
	}
	ds := make([]Delegate, 0, n)
	for i := 0; i < n; i++ {
		var d Delegate
		copy(d.ID[:], r.Take(ids.Bytes))
		d.Endpoint = r.String()
		if r.Err() != nil {
			return nil
		}
		ds = append(ds, d)
	}
	return ds
}

// readSubs reads a count-prefixed subscriber list. ListLen validates the
// count against the bytes actually available (each sub costs at least
// 1+20+1 bytes) before anything is allocated; there is no absolute cap,
// so whatever the encoder wrote, the decoder accepts — a channel can
// never make its own durable state undecodable.
func readSubs(r *wirebin.Reader) []Sub {
	n := r.ListLen(ids.Bytes + 2)
	if r.Err() != nil || n == 0 {
		return nil
	}
	subs := make([]Sub, 0, n)
	for i := 0; i < n; i++ {
		subs = append(subs, readSub(r))
		if r.Err() != nil {
			return nil
		}
	}
	return subs
}

// appendRecord encodes rec's payload (the bytes a WAL frame carries).
func appendRecord(dst []byte, rec Record) []byte {
	dst = append(dst, byte(rec.Op))
	dst = wirebin.AppendString(dst, rec.URL)
	switch rec.Op {
	case OpSubscribe:
		dst = appendSub(dst, rec.Sub)
	case OpUnsubscribe:
		dst = wirebin.AppendString(dst, rec.Sub.Client)
	case OpMeta:
		var flags byte
		if rec.Owner {
			flags |= metaOwner
		}
		if rec.Replica {
			flags |= metaReplica
		}
		if rec.ReplaceSubs {
			flags |= metaSubs
		}
		dst = append(dst, flags)
		dst = wirebin.AppendSint(dst, rec.Level)
		dst = wirebin.AppendUvarint(dst, rec.Epoch)
		dst = wirebin.AppendUvarint(dst, rec.Version)
		dst = wirebin.AppendSint(dst, rec.Count)
		dst = wirebin.AppendSint(dst, rec.SizeBytes)
		dst = wirebin.AppendFloat64(dst, rec.IntervalSec)
		if rec.ReplaceSubs {
			dst = wirebin.AppendUvarint(dst, uint64(len(rec.Subs)))
			for _, s := range rec.Subs {
				dst = appendSub(dst, s)
			}
		}
	case OpVersion:
		dst = wirebin.AppendUvarint(dst, rec.Version)
	case OpSubsChunk:
		dst = wirebin.AppendUvarint(dst, uint64(len(rec.Subs)))
		for _, s := range rec.Subs {
			dst = appendSub(dst, s)
		}
	case OpOwnerEpoch:
		dst = wirebin.AppendUvarint(dst, rec.OwnerEpoch)
	case OpLease:
		dst = wirebin.AppendString(dst, rec.Lease.Client)
		dst = wirebin.AppendUvarint(dst, uint64(rec.Lease.UnixNano))
	case OpDelegates:
		dst = appendDelegates(dst, rec.Delegates)
	}
	return dst
}

// decodeRecord parses one WAL frame payload.
func decodeRecord(payload []byte) (Record, error) {
	r := wirebin.NewReader(payload)
	var rec Record
	rec.Op = Op(r.Byte())
	rec.URL = r.String()
	switch rec.Op {
	case OpSubscribe:
		rec.Sub = readSub(r)
	case OpUnsubscribe:
		rec.Sub.Client = r.String()
	case OpMeta:
		flags := r.Byte()
		rec.Owner = flags&metaOwner != 0
		rec.Replica = flags&metaReplica != 0
		rec.ReplaceSubs = flags&metaSubs != 0
		rec.Level = r.Sint()
		rec.Epoch = r.Uvarint()
		rec.Version = r.Uvarint()
		rec.Count = r.Sint()
		rec.SizeBytes = r.Sint()
		rec.IntervalSec = r.Float64()
		if rec.ReplaceSubs {
			rec.Subs = readSubs(r)
		}
	case OpVersion:
		rec.Version = r.Uvarint()
	case OpSubsChunk:
		rec.Subs = readSubs(r)
	case OpOwnerEpoch:
		rec.OwnerEpoch = r.Uvarint()
	case OpLease:
		rec.Lease.Client = r.String()
		rec.Lease.UnixNano = int64(r.Uvarint())
	case OpDelegates:
		rec.Delegates = readDelegates(r)
	default:
		return Record{}, fmt.Errorf("store: unknown record op %d", rec.Op)
	}
	if err := r.Err(); err != nil {
		return Record{}, fmt.Errorf("store: decoding %v record: %w", rec.Op, err)
	}
	if r.Len() != 0 {
		return Record{}, fmt.Errorf("store: %v record has %d trailing bytes", rec.Op, r.Len())
	}
	return rec, nil
}

// apply folds one record into the materialized image. All operations are
// idempotent upserts (see doc.go), so replaying overlapping history is
// harmless.
func (rec Record) apply(state map[string]*Channel) {
	if rec.URL == "" {
		return
	}
	ch := state[rec.URL]
	if ch == nil {
		ch = &Channel{URL: rec.URL, Level: -1}
		state[rec.URL] = ch
	}
	switch rec.Op {
	case OpSubscribe:
		ch.upsertSub(rec.Sub)
		ch.Count = len(ch.Subs)
	case OpUnsubscribe:
		ch.removeSub(rec.Sub.Client)
		ch.removeLease(rec.Sub.Client)
		ch.Count = len(ch.Subs)
	case OpMeta:
		ch.Owner = rec.Owner
		ch.Replica = rec.Replica
		ch.Level = rec.Level
		ch.Epoch = rec.Epoch
		if rec.Version > ch.Version {
			ch.Version = rec.Version
		}
		ch.SizeBytes = rec.SizeBytes
		ch.IntervalSec = rec.IntervalSec
		if rec.ReplaceSubs {
			ch.replaceSubs(rec.Subs)
			ch.Count = len(ch.Subs)
		} else if len(ch.Subs) == 0 {
			// A record with no identities carries the count alone; with
			// identities present, the set itself is authoritative.
			ch.Count = rec.Count
		}
	case OpVersion:
		if rec.Version > ch.Version {
			ch.Version = rec.Version
		}
	case OpSubsChunk:
		for _, s := range rec.Subs {
			ch.upsertSub(s)
		}
		ch.Count = len(ch.Subs)
	case OpOwnerEpoch:
		if rec.OwnerEpoch > ch.OwnerEpoch {
			ch.OwnerEpoch = rec.OwnerEpoch
		}
	case OpLease:
		if rec.Lease.UnixNano == 0 {
			ch.removeLease(rec.Lease.Client)
		} else {
			ch.upsertLease(rec.Lease)
		}
	case OpDelegates:
		// Wholesale replace, like the roster it journals; an empty list
		// clears (the channel cooled or its owner demoted).
		ch.Delegates = append([]Delegate(nil), rec.Delegates...)
	}
}

// changes reports whether applying rec would change the image ch, the
// record's channel (nil when the image has none). It answers exactly for
// the records a heartbeat re-asserts — OpVersion, OpOwnerEpoch and
// OpMeta — and says true for every other op.
func (rec Record) changes(ch *Channel) bool {
	if rec.URL == "" {
		return false
	}
	if ch == nil {
		return true
	}
	switch rec.Op {
	case OpVersion:
		return rec.Version > ch.Version
	case OpOwnerEpoch:
		return rec.OwnerEpoch > ch.OwnerEpoch
	case OpMeta:
		if rec.Owner != ch.Owner || rec.Replica != ch.Replica || rec.Level != ch.Level ||
			rec.Epoch != ch.Epoch || rec.Version > ch.Version ||
			rec.SizeBytes != ch.SizeBytes || rec.IntervalSec != ch.IntervalSec {
			return true
		}
		if rec.ReplaceSubs {
			return ch.Count != len(rec.Subs) || !ch.holdsExactly(rec.Subs)
		}
		return len(ch.Subs) == 0 && ch.Count != rec.Count
	}
	return true
}

// holdsExactly reports whether replacing the subscriber set with subs
// would leave ch as it is: subs is a permutation of ch.Subs and every
// lease mark names one of them, so pruning drops none. It runs in time
// linear in the set, looking clients up through the index.
func (ch *Channel) holdsExactly(subs []Sub) bool {
	if len(subs) != len(ch.Subs) {
		return false
	}
	matched := make([]bool, len(subs))
	for _, s := range subs {
		i := ch.subIndex(s.Client)
		if i < 0 || matched[i] || ch.Subs[i] != s {
			return false
		}
		matched[i] = true
	}
	for _, l := range ch.Leases {
		if ch.subIndex(l.Client) < 0 {
			return false
		}
	}
	return true
}

// imageSlice snapshots the materialized map as a deterministic, sorted
// slice of deep copies.
func imageSlice(state map[string]*Channel) []Channel {
	out := make([]Channel, 0, len(state))
	for _, ch := range state {
		c := *ch
		c.Subs = append([]Sub(nil), ch.Subs...)
		c.Leases = append([]Lease(nil), ch.Leases...)
		c.Delegates = append([]Delegate(nil), ch.Delegates...)
		c.index = nil
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].URL < out[b].URL })
	return out
}
