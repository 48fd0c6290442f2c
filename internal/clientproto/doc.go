// Package clientproto is Corona's length-framed binary client protocol:
// the wire surface between a subscriber (the corona/client SDK) and one
// node's client port — and the session model every client framing
// shares. One session loop (Session.Serve) serves three framings: this
// binary protocol; the prototype's IM line protocol on a separate port
// (line.go), whose LOGIN, SUBSCRIBE, UNSUBSCRIBE and QUIT lines are the
// Login, Subscribe and Unsubscribe requests below plus an end-of-session
// request, its OK/ERR lines the Ack and Nak, and its MSG lines the
// Notify (a line client has no resume token, so it cannot displace a
// live session); and the web gateway's WebSocket JSON messages. The web
// gateway's SSE handler calls the same session's Login, Subscribe and
// KeepAlive. Every framing thus answers a request the same way, under
// the same session, resumption and slow-client rules.
//
// # Hello
//
// A connection opens with a one-byte hello in each direction, mirroring
// netwire's codec hello. The client sends Version; the server echoes it
// when it matches exactly and replies 0 to any other byte, then closes
// the connection. There is no negotiation: a deployment runs one build,
// so a skewed client or server fails closed at the hello.
//
// # Framing
//
// After the hello, the stream in both directions is a sequence of frames:
//
//	+------------+---------+----------------------+
//	| length u32 | type u8 | body (wirebin fields) |
//	+------------+---------+----------------------+
//
// length is the big-endian byte count of everything after it (type plus
// body) and is bounded by MaxFrame (1 MiB — bodies carry diffs, not
// feeds). A frame whose length exceeds the bound, whose type is unknown,
// or whose body does not decode exactly (short fields or trailing bytes)
// is a protocol error; the connection is dropped, since the stream
// position after a framing error is unrecoverable.
//
// Body fields use the wirebin conventions: unsigned LEB128 varints,
// varint-length-prefixed strings and byte strings, one-byte booleans.
//
// # Frames
//
// Client to server — every request carries a client-chosen request ID
// that the server echoes in exactly one Ack or Nak reply:
//
//	0x01 Login        req uvarint · handle string · resumeToken bytes
//	0x02 Subscribe    req uvarint · url string
//	0x03 Unsubscribe  req uvarint · url string
//	0x04 Ping         req uvarint
//
// Server to client:
//
//	0x10 Ack          req uvarint · token bytes (non-empty only for Login)
//	0x11 Nak          req uvarint · reason string
//	0x12 Notify       channel string · version uvarint · diff string ·
//	                  at uvarint (Unix nanoseconds)
//	0x13 ServerInfo   node string · peers list(string)
//
// A node's counters and its durable store's health are not part of
// ServerInfo; operators read them from the admin plane's /metrics and
// /readyz and from corona.LiveStats.
//
// # Sessions and resumption
//
// Login binds the connection to a handle. The Ack for a first login (empty
// resumeToken) carries a server-minted token; the client presents it on
// every later Login. The token is a session-displacement guard, not
// authentication (the system has none, like the prototype's IM buddy): a
// Login for a handle with a live session on the same node is refused
// unless it presents the live session's token, in which case the stale
// connection is closed and the new one takes over — the half-open socket
// a crashed client leaves behind cannot lock its handle out. A node that
// has no live session for the handle accepts any token and adopts it, so
// a client failing over to a sibling node resumes with the token it
// already holds.
//
// Subscriptions live in the overlay (at the channel's owner), not in the
// session. A client reconnecting after failover replays its
// subscription set, one Subscribe frame per channel: each routes to the
// channel's owner with this node as the entry, re-points the
// subscriber's entry record here, and re-creates the subscription if an
// in-memory owner lost it. The client sends nothing else to keep its
// subscriptions: the session itself (Session.KeepAlive, on every
// framing) routes an entry-node lease heartbeat for each channel of its
// set to the channel's owner every quarter of the node's lease TTL,
// which keeps the owner-side lease alive. An owner whose lease for a
// subscriber expires (its entry node died without the client
// reappearing) proactively re-routes the entry record to a surviving
// node. The durable store (internal/store) remains the server half of
// failover.
//
// After a successful Login, and again after every Ping ack, the server
// pushes a ServerInfo frame: the node's advertised overlay endpoint and
// the overlay endpoints of its leaf-set siblings (operator-visible
// topology, not dialable client ports).
//
// # Slow clients
//
// Every frame to a client, Notify and reply alike, goes through the
// connection's outbox (Outbox) and one writer loop that flushes once
// per batch. The rule below is the same for all four framings — binary,
// line, and the web gateway's WS and SSE — with "frame" read as line or
// event. At most 256 Notify frames wait per connection; when another
// arrives, the oldest queued Notify is evicted and counted, so a slow
// client sees a version gap rather than a growing backlog. Replies
// (Ack, Nak, ServerInfo) are never shed, but a client that lets 256 of
// them pile up unread is disconnected. A Notify whose version is not
// above the newest the connection already queued for that channel is
// dropped, so a connection never sees the same (channel, version)
// twice. When the server closes, each connection writes what its outbox
// holds, for up to three seconds, before its socket closes.
//
// Notify frames are unacknowledged and may arrive at any time after
// Login; ordering is per-channel by version, with no cross-channel
// guarantee.
//
// # Client registry
//
// The SessionTable a server logs its sessions into is the node's only
// client registry and its notifier: one handle-keyed map, under one
// lock, of every session on every transport (binary, line, WS, SSE, and
// in-process claims such as corona.LiveNode.Attach), each entry holding
// its session's deliverer (Outbox.Deliver). Every update reaches the
// node as one NotifyBatch per entry node; the table hands it to the
// named sessions' deliverers, counting clients with no session as
// undeliverable. The edge encodes the Notify frame once into the batch's
// shared cell and every connection writes the same buffer — the
// marginal cost per recipient is an enqueue, not an encode. When the
// node serves the web edge, the table also appends every update to its
// per-channel replay rings (Replay) before any deliverer runs.
package clientproto
