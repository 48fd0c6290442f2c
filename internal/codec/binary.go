package codec

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/wirebin"
)

// The envelope layout is:
//
//	-- hop-invariant prefix ------------------------------------------
//	flags    byte     bit 0: key present; bit 1: payload present;
//	                  bit 2: payload is native binary (set with bit 1)
//	type     uvarint length + bytes
//	key      20 bytes (only when bit 0 set)
//	from.id  20 bytes
//	from.ep  uvarint length + bytes
//	payload  uvarint length + bytes (only when bit 1 set)
//	-- per-hop trailer -----------------------------------------------
//	hops     uvarint
//	cover    uvarint
//
// All varints are unsigned LEB128 (encoding/binary). Identifiers travel as
// raw 20-byte values instead of 40-char hex strings, and no field names
// appear on the wire.
//
// Bit 2 is a format marker: Encode sets it on every payload, and Decode
// rejects a payload without it as malformed.
//
// The field order is deliberate: everything that is identical across the
// copies of a broadcast fanned out to N routing contacts — which is
// everything except Hops and Cover — forms a contiguous prefix. Encode
// caches that prefix in the message's shared-encoding cell (attached by
// pastry's fanOut), so the payload region is encoded once per hop and each
// additional contact costs only the two-varint trailer plus a copy.

// ID is the connection hello byte, 'B'. PR 1's binary envelope (ID 'b')
// carried Hops/Cover before the payload, and the seed's JSON envelope was
// 'j'; transports drop a connection opening with any byte but ID, so a
// skewed peer fails closed instead of misparsing every envelope.
const ID byte = 'B'

const (
	flagKey           = 1 << 0
	flagPayload       = 1 << 1
	flagBinaryPayload = 1 << 2
)

// errNotBinary rejects an envelope whose payload lacks the native-binary
// flag: such a payload is in no format this codec can decode.
var errNotBinary = errors.New("codec: malformed envelope: payload not flagged native binary")

// maxTrailer bounds the encoded size of the Hops/Cover trailer: two
// varints, each at most 10 bytes.
const maxTrailer = 20

// Encode renders the message as a self-contained body. A payload blob
// retained from a previous Decode is re-encoded verbatim.
func Encode(msg pastry.Message) ([]byte, error) {
	return AppendEncode(nil, msg)
}

// AppendEncode appends the message's body, exactly as Encode renders it,
// to dst and returns the extended slice. On error dst is returned
// unchanged. Transports encode a whole batch into one reused buffer this
// way; the prefix cached for a fanned-out broadcast is still rendered
// into its own allocation, since it outlives any one batch.
func AppendEncode(dst []byte, msg pastry.Message) ([]byte, error) {
	prefix, cached := msg.CachedEncodePrefix()
	if !cached && msg.SharesEncoding() {
		// First encode of a fanned-out broadcast: render the prefix into
		// its own buffer so the cell can hand it to the other contacts.
		var err error
		if prefix, err = appendPrefix(nil, msg); err != nil {
			return dst, err
		}
		msg.StoreEncodePrefix(prefix)
		cached = true
	}
	if cached {
		dst = slices.Grow(dst, len(prefix)+maxTrailer)
		return appendTrailer(append(dst, prefix...), msg), nil
	}
	// Unicast: render straight onto dst — no separate prefix buffer, no
	// second copy.
	body, err := appendPrefix(dst, msg)
	if err != nil {
		return dst, err
	}
	return appendTrailer(body, msg), nil
}

// appendTrailer writes the per-hop varint trailer.
func appendTrailer(body []byte, msg pastry.Message) []byte {
	body = wirebin.AppendUvarint(body, uint64(msg.Hops))
	body = wirebin.AppendUvarint(body, uint64(msg.Cover))
	return body
}

// scratchPool holds payload staging buffers: a typed payload encodes into
// a pooled buffer first, so the envelope is allocated once at its exact
// size. Buffers grown past maxPooledScratch (a huge diff) are not kept.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledScratch = 64 << 10

// appendPrefix renders the hop-invariant region — flags, type, key,
// origin, and the payload blob — onto dst (allocating when dst is nil).
// A payload blob retained from a previous Decode is copied verbatim. On
// error nothing has been written to dst.
func appendPrefix(dst []byte, msg pastry.Message) ([]byte, error) {
	payload, forwarded := msg.RawPayload()
	if !forwarded && msg.Payload != nil {
		scratch := scratchPool.Get().(*[]byte)
		defer func() {
			if cap(*scratch) <= maxPooledScratch {
				scratchPool.Put(scratch)
			}
		}()
		var err error
		if payload, err = msg.Payload.AppendBinary((*scratch)[:0]); err != nil {
			return nil, fmt.Errorf("codec: encoding %s payload: %w", msg.Type, err)
		}
		*scratch = payload[:0]
	}
	var flags byte
	if !msg.Key.IsZero() {
		flags |= flagKey
	}
	if len(payload) > 0 {
		flags |= flagPayload | flagBinaryPayload
	}
	if dst == nil {
		// Size the buffer for the whole prefix (a key slot included) plus
		// the trailer, so the unicast path never regrows.
		dst = make([]byte, 0, 1+2*ids.Bytes+maxTrailer+
			uvarintLen(uint64(len(msg.Type)))+len(msg.Type)+
			uvarintLen(uint64(len(msg.From.Endpoint)))+len(msg.From.Endpoint)+
			uvarintLen(uint64(len(payload)))+len(payload))
	}
	dst = append(dst, flags)
	dst = wirebin.AppendString(dst, msg.Type)
	if flags&flagKey != 0 {
		dst = append(dst, msg.Key[:]...)
	}
	dst = append(dst, msg.From.ID[:]...)
	dst = wirebin.AppendString(dst, msg.From.Endpoint)
	if flags&flagPayload != 0 {
		dst = wirebin.AppendBytes(dst, payload)
	}
	return dst, nil
}

// Decode parses a body produced by Encode. The payload is not
// materialized: its raw bytes are retained on the message, aliasing body,
// and the handler registered for the message's type decodes them when the
// message reaches it (pastry.Handle). They are valid only as long as body
// is: pastry copies them before it queues the message onward.
func Decode(body []byte) (pastry.Message, error) {
	r := wirebin.NewReader(body)
	flags := r.Byte()
	var msg pastry.Message
	msg.Type = r.String()
	if flags&flagKey != 0 {
		copy(msg.Key[:], r.Take(ids.Bytes))
	}
	copy(msg.From.ID[:], r.Take(ids.Bytes))
	msg.From.Endpoint = r.String()
	var rawPayload []byte
	if flags&flagPayload != 0 {
		rawPayload = r.Bytes()
	}
	msg.Hops = r.Int()
	msg.Cover = r.Int()
	if err := r.Err(); err != nil {
		return pastry.Message{}, fmt.Errorf("codec: truncated binary envelope: %w", err)
	}
	if flags&flagPayload != 0 && flags&flagBinaryPayload == 0 {
		return pastry.Message{}, errNotBinary
	}
	if len(rawPayload) > 0 {
		// Retained, not decoded: forwarding re-sends these bytes verbatim
		// and only a local delivery materializes the struct.
		msg.SetRawPayload(rawPayload)
	}
	return msg, nil
}
