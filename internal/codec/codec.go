// Package codec serializes overlay messages for the wire.
//
// Encode turns a pastry.Message into a self-contained byte body and Decode
// turns it back. There is one format: a compact length-delimited binary
// envelope (see binary.go for the layout) whose payload region is the
// payload type's own native binary encoding. Transports announce it with
// a one-byte connection hello, ID; a connection whose hello is anything
// else is dropped, so a skewed peer fails closed.
//
// Message payloads are application structs in their own native binary
// form (pastry.Payload): Encode writes what the payload's AppendBinary
// appends, and a payload whose AppendBinary fails is an encode error.
// Which struct a message type carries is declared once, where its handler
// is registered (pastry.Handle), and that registration decodes it; the
// codec keeps no table of types.
//
// Decoding is lazy: Decode retains the raw payload bytes on the message
// (pastry.Message.SetRawPayload), aliasing the frame they arrived in,
// instead of materializing the struct, and Encode re-sends a retained blob
// verbatim. A message delivered to a local handler costs one decode and no
// copy: its handler decodes it while the frame is still live, and every
// DecodeBinary copies what it keeps. A node forwarding a message — a
// routed next hop, or a broadcast pushed deeper into the dissemination DAG
// — never unmarshals or re-marshals the payload, but copies its raw bytes
// once, since the transport reuses the frame before the forwarded copy is
// written out.
package codec

import "corona/internal/pastry"

// Measure returns the encoded size of msg, for transports that account
// bytes without materializing frames (simnet). A message that fails to
// encode measures zero. Fan-out copies carrying a shared-encoding cell
// amortize the measurement the way real frames do — the prefix encodes
// once — and because only a size is needed, later copies cost O(trailer):
// cached prefix length plus two varint widths, no body built at all.
func Measure(msg pastry.Message) int {
	if prefix, ok := msg.CachedEncodePrefix(); ok {
		return len(prefix) + uvarintLen(uint64(msg.Hops)) + uvarintLen(uint64(msg.Cover))
	}
	body, err := Encode(msg)
	if err != nil {
		return 0
	}
	return len(body)
}

// uvarintLen returns the encoded width of v as an unsigned LEB128 varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
