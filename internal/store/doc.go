// Package store persists a Corona node's authoritative channel state —
// subscriber sets, ownership and level assignments, version progress and
// tradeoff bookkeeping — so a restarted node recovers the subscriptions
// it owes its clients instead of silently dropping them. The paper's §3.5
// replication masks *other* nodes' failures; this package masks a node's
// own restart.
//
// The design is a classic write-ahead log with snapshot compaction. Every
// state mutation in internal/core emits a Record through the Sink
// interface; the store applies it to an in-memory materialized image and
// appends it to the log. Appends are asynchronous: frames accumulate in a
// buffer that a group-commit flusher writes and fsyncs at most once per
// CommitWindow, so durability costs one fsync per window rather than one
// per mutation. After CompactEvery records the store writes the
// materialized image as a snapshot and starts a fresh log.
//
// # On-disk layout
//
// A data directory holds at most one active log and one snapshot, named
// by generation, plus a lock file:
//
//	wal-<gen>     append-only record log
//	snap-<gen>    materialized channel image at the moment wal-<gen> began
//	LOCK          exclusive flock held for the store's lifetime; a second
//	              Open on a live directory fails instead of compacting
//	              over the first store's log
//
// Compaction from generation G: flush wal-G, write snap-(G+1) via
// temp-file + rename, create wal-(G+1), fsync the directory, then delete
// wal-G and snap-G. A crash between any two steps leaves a recoverable
// directory because records are idempotent upserts (see below).
//
// # WAL format
//
// A WAL file is a header followed by frames:
//
//	header := magic "CORWAL1\n" | gen uvarint
//	frame  := length uint32le | crc uint32le | payload
//
// crc is CRC-32C (Castagnoli) over the payload. Replay stops — without
// error — at the first frame whose length overruns the file, exceeds
// MaxRecordBytes, or whose CRC mismatches: everything before the damage
// is recovered, the damaged tail is discarded. A torn final frame (the
// common crash artifact) therefore costs at most the records inside the
// last unflushed commit window.
//
// # Record payload format
//
// All integers are wirebin varints (uvarint, or zigzag sint where
// negative values are legal), strings are length-prefixed, floats are
// fixed 8-byte little-endian IEEE 754:
//
//	record   := op byte | url string | body
//	OpSubscribe   body := client string | entryID [20]byte | entryEndpoint string
//	OpUnsubscribe body := client string
//	OpMeta        body := flags byte | level sint | epoch uvarint |
//	                      version uvarint | count sint | sizeBytes sint |
//	                      intervalSec float64 |
//	                      [ nsubs uvarint | (client,entryID,entryEndpoint)... ]
//	OpVersion     body := version uvarint
//	OpSubsChunk   body := nsubs uvarint | (client,entryID,entryEndpoint)...
//	OpOwnerEpoch  body := ownerEpoch uvarint
//	OpLease       body := client string | unixNano uvarint
//	OpDelegates   body := ndelegates uvarint | (id [20]byte, endpoint string)...
//
// OpMeta flags: bit0 owner, bit1 replica, bit2 subs-present (the
// subscriber list follows and replaces the durable set wholesale — the
// shape a full replication push arrives in; replica deltas arrive as
// OpSubscribe/OpUnsubscribe). A replacement of more than 8192
// subscribers is split at append time into one capped OpMeta followed by
// OpSubsChunk upserts, so a channel of any size stays far below
// MaxRecordBytes and can always decode its own durable state.
//
// Records are idempotent upserts: OpSubscribe/OpUnsubscribe/OpSubsChunk
// set or delete keys in the subscriber set, OpMeta is last-writer-wins,
// OpVersion and OpOwnerEpoch are monotonic (max), OpLease upserts one
// lease mark (an OpUnsubscribe or a subscriber replacement drops the
// marks of departed clients), OpDelegates replaces the delegate roster
// wholesale. Re-applying any suffix of history that ends at a snapshot
// point reproduces the snapshot exactly, which is what makes the crash
// windows around compaction safe to replay.
//
// # What the log holds
//
// The WAL holds every change of the image, not every call to Append. A
// record whose apply would leave the image as it is is dropped before it
// is framed: an OpVersion or OpOwnerEpoch that does not raise its value,
// and an OpMeta whose fields equal the image's and whose subscriber list,
// when it replaces the set, is the same set (in any order) with every
// lease mark still naming a member. A replica re-offers state it
// already holds whenever a claim or resync re-pushes it; only the pushes
// that change something reach the disk. The set comparison is linear in its size, through the
// channel's client index. Other ops are always journaled.
//
// Recovery folds apply over the surviving records in order, so skipping
// a record that is a no-op at its point in that order cannot change the
// recovered image: the dropped record's in-memory effect was nothing,
// and so is its absence on replay. A dropped replacement that lists the
// set in another order leaves the old order, in memory and on disk
// alike; nothing reads that order. Dropping stops once an IO error is latched: the disk
// may then lack changes the image holds, and a re-assertion is the only
// thing that could still write them.
//
// OpOwnerEpoch journals the ownership fencing epoch the owner-epoch
// handshake compares (internal/core: exactly one owner survives a
// restart merge). OpLease journals which subscribers live under
// entry-node lease discipline; the timestamp is advisory — recovery
// grants every restored lease a fresh grace window rather than trusting
// a pre-crash clock, so the mark's payload is membership, not time. An
// OpLease whose unixNano is zero is a lease clear and removes the mark
// (the owner re-routed a dead entry and gave up on its heartbeats).
//
// OpDelegates journals a hot channel's fan-out delegate roster — the
// overlay addresses of the nodes the owner recruited to shard
// notification dissemination once the subscriber count crossed the
// delegation threshold (internal/core). Only the roster is durable: the
// per-delegate partitions are a pure function of the subscriber set and
// the roster, so a restarted owner re-derives and re-pushes them instead
// of replaying every partition push from the log. An empty list clears
// the roster (the channel cooled below the threshold or lost ownership).
//
// # Snapshot format
//
//	snapshot := magic "CORSNP3\n" | body | crc uint32le
//	body     := gen uvarint | nchannels uvarint | channel...
//	channel  := url string | flags byte (bit0 owner, bit1 replica) |
//	            level sint | epoch uvarint | version uvarint |
//	            count sint | sizeBytes sint | intervalSec float64 |
//	            nsubs uvarint | (client,entryID,entryEndpoint)... |
//	            ownerEpoch uvarint |
//	            nleases uvarint | (client string, unixNano uvarint)... |
//	            ndelegates uvarint | (id [20]byte, endpoint string)...
//
// crc is CRC-32C over body. A snapshot that fails its magic, CRC, or
// decode is ignored and recovery falls back to the previous generation
// (if its files survive) or to an empty image plus whatever WALs exist.
// Any other magic — the retired "CORSNP1\n" and "CORSNP2\n" formats
// included — fails the magic check the same way.
//
// # Recovery
//
// Open loads the newest valid snapshot, replays every WAL file in
// ascending generation order on top of it (idempotence makes overlap
// harmless), then immediately compacts into a fresh generation, deleting
// all older files. Recovery is therefore also self-healing: any garbage a
// crash left behind is gone after the first successful Open.
package store
