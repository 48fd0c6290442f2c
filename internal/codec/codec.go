// Package codec serializes overlay messages for the wire.
//
// Encode turns a pastry.Message into a self-contained byte body and Decode
// turns it back. There is one format: a compact length-delimited binary
// envelope (see binary.go for the layout) whose payload region is the
// payload type's own native binary encoding. Transports announce it with
// a one-byte connection hello, ID; a connection whose hello is anything
// else is dropped, so a skewed peer fails closed.
//
// Message payloads are application structs, resolved through a
// process-wide registry mapping message types to payload constructors.
// Every registered type implements both halves of the native contract,
// BinaryMarshaler and BinaryUnmarshaler (corona-lint's wiresym analyzer
// checks every registration site). Encoding a payload whose type is
// unregistered, or whose value has no AppendBinary, is an error.
//
// Decoding is lazy: Decode retains the raw payload bytes on the message
// (pastry.Message.SetRawPayload), aliasing the frame they arrived in,
// instead of materializing the struct, and Encode re-sends a retained blob
// verbatim. A message delivered to a local handler costs one decode and no
// copy: pastry materializes it while the frame is still live, and every
// BinaryUnmarshaler copies what it keeps. A node forwarding a message — a
// routed next hop, or a broadcast pushed deeper into the dissemination DAG
// — never unmarshals or re-marshals the payload, but copies its raw bytes
// once, since the transport reuses the frame before the forwarded copy is
// written out.
package codec

import (
	"fmt"
	"sync"

	"corona/internal/pastry"
)

// BinaryMarshaler is implemented by payload structs that have a native
// binary wire form. AppendBinary appends the encoding to dst and returns
// the extended slice; encodings must be deterministic (byte-stable for
// equal values) so forwarded copies and re-encodes are identical.
type BinaryMarshaler interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// BinaryUnmarshaler is the decode side of the native binary payload
// contract. DecodeBinary parses an encoding produced by AppendBinary into
// the receiver; src aliases the receive buffer and must not be retained
// or mutated.
type BinaryUnmarshaler interface {
	DecodeBinary(src []byte) error
}

func init() {
	// Retained raw payloads resolve through this registry when the
	// overlay materializes them for a local handler. The overlay's own
	// join and state messages are registered here, so every binary that
	// encodes (netwire) or sizes (simnet) messages can handle them.
	pastry.SetPayloadDecoder(decodePayload)
	pastry.RegisterPayloadTypes(RegisterPayload)
}

// payloadFactories maps message types to their payload constructors,
// letting decoders produce typed payloads.
var (
	registryMu       sync.RWMutex
	payloadFactories = map[string]func() any{}
)

// RegisterPayload associates a message type with a payload constructor.
// The constructed value must implement BinaryUnmarshaler (and values sent
// under this type BinaryMarshaler); registering a type without the binary
// contract panics, since no peer could decode what it sends. Registering
// the same type twice replaces the factory (packages register their types
// from init-like hooks that may run more than once per process).
func RegisterPayload(msgType string, factory func() any) {
	if _, ok := factory().(BinaryUnmarshaler); !ok {
		panic(fmt.Sprintf("codec: payload type %s registered without DecodeBinary", msgType))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	payloadFactories[msgType] = factory
}

// lookupPayload returns the constructor registered for msgType, if any.
func lookupPayload(msgType string) (func() any, bool) {
	registryMu.RLock()
	f, ok := payloadFactories[msgType]
	registryMu.RUnlock()
	return f, ok
}

// decodePayload resolves raw native-binary payload bytes into the
// registered typed struct for msgType. An unregistered type (version
// skew) drops the payload but keeps the envelope.
func decodePayload(msgType string, raw []byte) (any, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	factory, ok := lookupPayload(msgType)
	if !ok {
		return nil, nil
	}
	p := factory()
	if err := p.(BinaryUnmarshaler).DecodeBinary(raw); err != nil {
		return nil, fmt.Errorf("codec: decoding %s payload: %w", msgType, err)
	}
	return p, nil
}

// marshalerFor returns the native encoder of a message's typed payload. A
// payload whose type is unregistered, or whose value has no AppendBinary,
// is an error: there is no other payload form to fall back to.
func marshalerFor(msg pastry.Message) (BinaryMarshaler, error) {
	if _, registered := lookupPayload(msg.Type); !registered {
		return nil, fmt.Errorf("codec: payload type %s is not registered", msg.Type)
	}
	bm, ok := msg.Payload.(BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("codec: %s payload %T has no AppendBinary", msg.Type, msg.Payload)
	}
	return bm, nil
}

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
