// Package webgateway is Corona's web edge: an HTTP server beside the
// binary client-protocol listener that lets browsers — and anything
// else speaking WebSocket or Server-Sent Events — join the pub-sub
// system with no SDK, while keeping the node's session semantics:
// resume tokens, handle displacement, entry-node lease refreshes, and
// the encode-once fan-out path.
//
// # Endpoints
//
// GET /ws — RFC 6455 WebSocket (server side implemented here on the
// standard library via http.Hijacker; subprotocol "corona.v1.json" is
// echoed when offered). Both directions carry JSON text messages.
//
// GET /sse — Server-Sent Events (text/event-stream). Server-to-client
// only; the request line carries the session: query parameters handle,
// token (hex), and one ch per channel URL. Resume arrives in the
// Last-Event-ID header (browser EventSource reconnect) or a since query
// parameter (curl), both in the composite-cursor format below.
//
// # WebSocket messages
//
// Client to server (type, then fields by message):
//
//	{"type":"login","req":1,"handle":"h","token":"<hex, may be empty>"}
//	{"type":"subscribe","req":2,"url":"http://...","since":41}   // since optional
//	{"type":"unsubscribe","req":3,"url":"http://..."}
//	{"type":"ping","req":4}
//
// Server to client:
//
//	{"type":"ack","req":1,"token":"<hex>"}      // token on login acks only
//	{"type":"nak","req":2,"reason":"..."}
//	{"type":"hello","node":"...","peers":["..."]}
//	{"type":"notify","channel":"...","version":42,"diff":"...","at":<unix nanos>}
//	{"type":"snapshot_required","channel":"...","version":57}
//
// req is an opaque client-chosen correlation number echoed in the ack
// or nak. Login must come first; a handle already live under a
// different resume token is refused (nak), while presenting the live
// session's token displaces it — exactly the binary protocol's rules,
// and enforced by the same node-wide session table, so displacement
// works across transports.
//
// # Resume and replay
//
// Every update the node would deliver locally is also appended — before
// any deliverer runs — to a per-channel, bounded, version-indexed
// replay ring (it grows as updates arrive, up to its capacity). The
// rings live in the node's session table (clientproto.SessionTable,
// clientproto.Replay), whose NotifyBatch appends to them directly; the
// first gateway built on a table switches them on, so a node without a
// web edge keeps none. A subscribe carrying since replays, in order and
// exactly once, every buffered version strictly greater than since,
// merged gap-free with live deliveries (a gate suppresses live events
// for the channel while the subscribe is in flight; the ring holds
// them). When the ring has wrapped past the cursor — the buffer cannot
// prove it covers the gap — the server sends snapshot_required with the
// newest version it knows, and the client must refetch the document
// before resuming the diff stream from there.
//
// The SSE cursor is composite: each event's id line is
// "escape(channel):version[,escape(channel):version...]" — the full
// session position, because EventSource resends only the last id it
// saw. On reconnect each ch channel resumes from its cursor entry, or
// live-only when absent.
//
// Within one session each channel's delivered versions are strictly
// increasing: duplicates (re-observed delegate batches, replay/live
// overlap) are filtered at the queue boundary by a per-channel
// watermark.
//
// # Slow clients
//
// Every session — WS and SSE here, and the binary protocol's — queues
// through the same outbox (clientproto.Outbox) with one shed rule. At
// most QueueLen (default 256) notify events wait per session; when
// another arrives, the oldest queued notify is evicted, and the client
// sees a version gap it can replay later (subscribe with since on WS,
// reconnect with the cursor on SSE). Control events — acks, naks, hello,
// snapshot_required, heartbeats, pongs — are never shed, but they are
// bounded too: a session that lets QueueLen of them pile up unread (a
// client sending pings and never reading, say) is closed and counted as
// a slow-client disconnect. Evictions, oversize drops, slow-client
// disconnects and displacement evictions are counted by cause in the
// node's stats and /metrics. On Close, each session writes what its
// outbox holds, for up to a few seconds, before its connection closes.
//
// # Liveness
//
// The server pings (WS) or writes comment heartbeats (SSE) every
// HeartbeatEvery, and refreshes the session's entry-node leases at
// channel owners every LeaseEvery — web subscribers ride the same
// lease-failover machinery as SDK clients. A WS peer silent for three
// heartbeat intervals is presumed dead.
package webgateway
