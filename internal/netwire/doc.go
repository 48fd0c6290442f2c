// Package netwire carries overlay messages over real TCP connections —
// the live-deployment counterpart of simnet.
//
// # Architecture
//
// Send is an asynchronous enqueue: each destination endpoint gets a
// dedicated outbound queue drained by one writer goroutine that owns that
// peer's connection. Serializing all writes to a peer through one
// goroutine makes frame interleaving impossible by construction — any
// number of goroutines may call Send concurrently. Delivery failures
// (unreachable peer, write error after retries) are reported out of band
// through the OnSendFault callback, once per batch the writer drops: the
// overlay evicts the peer on the first report that finds it in the
// routing state, and hands every report to the application's fault
// callback, which repairs what still names the peer. A dead entry node
// is therefore repaired around on the live stack exactly as in
// simulation, where simnet's Send fails inline.
//
// The writer coalesces whatever is queued — up to 64 messages —
// into a single multi-message frame, amortizing the syscall and frame
// overhead across the batch under load while adding no delay when the
// queue is shallow (a lone message ships immediately). It builds each
// frame whole in one buffer and hands it to the socket in one write.
// Connections are established lazily and re-established with
// exponential backoff. A reader takes headers and small frames through
// a default-size (4 KiB) bufio.Reader and reads each frame into one
// buffer it reuses. A writer whose queue stays empty for two minutes
// retires — its goroutine and connection are released, and a later Send
// revives the peer transparently — so membership churn does not
// accumulate per-endpoint state forever.
//
// Each peer's queue is bounded at 1024 messages waiting for the writer,
// besides the batch the writer is sending. It is a ring that grows on
// demand, and a writer whose queue has stayed empty for a second gives
// back the storage its queue and buffers grew to: an idle contact costs
// no queue storage, and a steady stream that drains its queue now and
// then does not regrow it each time. When the queue is full, Send
// discards the new message and counts it in Dropped: Corona's protocol
// tolerates loss the way it tolerates UDP loss, and the next maintenance
// round repairs. Send never waits for a slow peer.
//
// The listener survives a failed Accept other than its own close (a
// process out of file descriptors, say): it retries after a pause that
// starts at 5 ms and doubles up to 1 s.
//
// # Buffer lifetimes
//
// Each writer encodes a whole batch into one buffer (codec.AppendEncode)
// and copies it into a frame buffer sized by the frame being written;
// it reuses both for the next batch until a second of quiet releases
// them. Each reader reads every frame of its connection into one reused
// buffer. A decoded message's retained raw payload aliases that frame
// buffer, so it is valid only during the deliver callback: the callback must not keep the raw bytes (or the
// message, unmaterialized) once it returns. pastry.Node.Deliver keeps
// that rule: a local handler sees a payload materialized by a decoder
// that copies, and a routed next hop or a broadcast forwarded deeper
// copies the raw payload once before it is queued. A buffer grown past
// 1 MiB by a huge frame or batch is dropped afterwards rather than kept.
// What an idle contact keeps is the reader's 4 KiB, the socket and small
// buffers: about 7 KB of heap, sender and receiver together
// (BenchmarkWireIdlePeer; TestIdlePeerFootprint holds it under 16 KiB).
//
// # Wire protocol
//
// Each connection is one-directional: the dialer writes, the accepter
// reads. A connection opens with a one-byte hello, codec.ID ('B'): the
// compact binary envelope with a varint Hops/Cover trailer. A connection
// opening with any other byte is dropped — 'j' (the seed's JSON envelope)
// and 'b' (PR 1's binary envelope, which carried Hops/Cover before the
// payload) included — so a skewed peer fails closed instead of
// misparsing.
//
// After the hello, the stream is a sequence of frames:
//
//	+------------+-----------------+----------------------------------+
//	| length u32 | count uvarint   | count × (len uvarint + body)     |
//	+------------+-----------------+----------------------------------+
//
// length is the big-endian byte count of everything after it (count plus
// all message records); it is bounded by maxFrame. Each body is one
// overlay message encoded by internal/codec (see there for the envelope
// layout). Messages within a frame, and frames within a connection,
// preserve the sender's enqueue order.
//
// # Payload formats
//
// Within a body, the payload region is a length-prefixed blob holding the
// payload type's own AppendBinary encoding (pastry.Payload), with
// bit 2 of the envelope's flags byte set. Every Corona message type —
// subscribe (an unsubscribe is a subscribe with Remove set), notifybatch,
// pollctl, update, maintain (including the sparse honeycomb.ClusterSet
// form), the wedgefwd wrapper,
// replicate, lease and delegate traffic, and the overlay's own join and
// state messages — travels this way; field layouts are documented at the
// implementations in internal/core/messages_wire.go,
// internal/honeycomb/wire.go and internal/pastry/join_wire.go.
//
// A payload whose AppendBinary fails does not encode; the writer drops
// that message and counts it in Dropped. A received payload without the
// binary flag makes the envelope malformed and it is skipped. A received
// message of a type this node has no handler for (version skew) is
// delivered to none, its payload never decoded; one whose payload does
// not decode as its handler's type is dropped.
//
// The binary envelope orders its fields so everything except the Hops and
// Cover counters — which differ per broadcast recipient — forms a
// contiguous prefix, with the two counters as a varint trailer. A node
// fanning a broadcast out to N routing contacts therefore encodes the
// envelope and payload once and appends a fresh 2-varint trailer per
// contact; a node forwarding a received message re-sends (a copy of) the
// retained payload blob verbatim, never re-marshaling it (see
// internal/codec).
//
// Payloads are decoded lazily, by the handler registered for the message
// type (pastry.Handle), so the same application structs flow over the
// wire that flow by reference under simulation, and a message that is
// only forwarded never materializes its payload at all.
package netwire
