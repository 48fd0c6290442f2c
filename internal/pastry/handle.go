package pastry

import "fmt"

// Payload is the body of an overlay message, in its native binary wire
// form. AppendBinary appends the encoding to dst and returns the extended
// slice; encodings must be deterministic (byte-stable for equal values),
// so forwarded copies and re-encodes are identical. DecodeBinary parses
// an encoding AppendBinary produced into the receiver; src aliases the
// receive buffer, so it must not be retained or mutated, and a decoder
// copies what it keeps. A payload that encodes to no bytes leaves no
// payload region in the envelope, and arrives as zero bytes to decode.
type Payload interface {
	AppendBinary(dst []byte) ([]byte, error)
	DecodeBinary(src []byte) error
}

// payloadPtr is the payload type P of a handler: a pointer to a struct T,
// so a fresh one can be decoded into.
type payloadPtr[T any] interface {
	*T
	Payload
}

// NoPayload is the payload of a message that carries none: it encodes to
// zero bytes and decodes from nothing else. A message sent with a nil
// payload reaches a NoPayload handler.
type NoPayload struct{}

// AppendBinary appends nothing.
func (*NoPayload) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

// DecodeBinary accepts only an empty body.
func (*NoPayload) DecodeBinary(src []byte) error {
	if len(src) != 0 {
		return fmt.Errorf("pastry: %d payload bytes where none belong", len(src))
	}
	return nil
}

// Handle registers h for messages of msgType on n. It is the one place a
// message type is bound to its payload type and its handler, and the
// entry it makes is also the payload's decoder: a message that arrived
// off the wire is decoded into a fresh P only when it reaches h, so a
// node that merely forwards it never decodes it, while one that arrived
// in memory (simnet) hands h the payload its sender attached. A message
// whose payload is not a P — bytes that do not decode as one, or another
// type in memory — is dropped. Handle panics if msgType already has a
// handler, which catches wiring mistakes early.
func Handle[T any, P payloadPtr[T]](n *Node, msgType string, h func(msg Message, p P)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.handlers[msgType]; dup {
		panic("pastry: duplicate handler for " + msgType)
	}
	n.handlers[msgType] = func(msg Message) {
		if p, err := materialize[T, P](&msg); err == nil {
			h(msg, p)
		}
	}
}

// PayloadAs returns msg's payload as a P, decoding it from the bytes it
// arrived in as a handler for P would; the error says why it is not one.
func PayloadAs[T any, P payloadPtr[T]](msg Message) (P, error) {
	return materialize[T, P](&msg)
}

// materialize returns m's payload as a P and leaves it on m, decoding it
// first if m still holds the bytes it arrived in (none at all decode as
// an empty body). Decoding drops those bytes: once a handler holds, and
// may mutate, the typed payload, a re-send must encode it, not them.
func materialize[T any, P payloadPtr[T]](m *Message) (P, error) {
	if !m.hasRaw && m.Payload != nil {
		p, ok := m.Payload.(P)
		if !ok {
			return nil, fmt.Errorf("pastry: %s payload is %T, not %T", m.Type, m.Payload, p)
		}
		return p, nil
	}
	p := P(new(T))
	if err := p.DecodeBinary(m.raw); err != nil {
		return nil, err
	}
	m.Payload, m.raw, m.hasRaw = p, nil, false
	return p, nil
}
