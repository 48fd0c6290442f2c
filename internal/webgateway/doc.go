// Package webgateway is Corona's web edge: an HTTP server beside the
// binary client-protocol listener that lets browsers — and anything
// else speaking WebSocket or Server-Sent Events — join the pub-sub
// system with no SDK, while keeping the node's session semantics:
// resume tokens, handle displacement, entry-node lease refreshes, and
// the encode-once fan-out path. WebSocket is a framing of clientproto's
// session loop (clientproto.Session.Serve), beside the binary and line
// framings, so every request is checked and answered as on the binary
// port. SSE keeps its own handler, since its login errors are HTTP
// statuses sent before the stream, but calls the same session's Login,
// Subscribe and KeepAlive.
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
// or nak; a message that is not JSON is answered with a nak carrying no
// req. Login must come first; a handle already live under a different
// resume token is refused (nak), while presenting the live session's
// token displaces it — exactly the binary protocol's rules, and enforced
// by the same node-wide session table, so displacement works across
// transports.
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
// them). A subscribe without since holds nothing back, so a live notify
// racing it can arrive before its ack. When the ring has wrapped past the cursor — the buffer cannot
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
// # Slow clients and liveness
//
// Every session queues through the shared outbox (clientproto.Outbox),
// whose one shed rule is specified in clientproto's doc: at most
// 256 notify events wait (clientproto.DefaultQueueLen), the oldest
// evicted first; control events are never shed, but a session that lets
// 256 of them pile up unread is closed as slow. The client sees an evicted
// version as a gap it can replay (subscribe with since on WS, reconnect
// with the cursor on SSE). On Close each session writes what its outbox
// holds, for up to a few seconds, before its connection closes.
//
// The server pings (WS) or writes comment heartbeats (SSE) every 25s. Its
// session keep-alive (clientproto.Session.KeepAlive), the one every
// framing runs, refreshes the session's entry-node leases at channel
// owners every quarter of the node's lease TTL (30s at the 2-minute
// default), so web subscribers ride the same lease-failover machinery as
// binary and line clients. A WS peer silent for three heartbeat
// intervals is presumed dead.
package webgateway
