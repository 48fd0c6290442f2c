package pastry

import (
	"fmt"

	"corona/internal/ids"
	"corona/internal/wirebin"
)

// Native binary wire forms for the overlay's own protocol payloads: the
// Payload contract the Corona message set follows too (package core,
// messages_wire.go), so join requests and state snapshots have a
// deterministic byte encoding. Conventions are the wirebin house rules: uvarint counts, length-prefixed strings, and a
// raw 20-byte identifier plus endpoint string per address.

// AppendAddr appends an address's wire form — the raw 20-byte
// identifier, then the endpoint string — which every payload carrying an
// address, the overlay's and Corona's, shares.
func AppendAddr(dst []byte, a Addr) []byte {
	dst = append(dst, a.ID[:]...)
	return wirebin.AppendString(dst, a.Endpoint)
}

// ReadAddr reads an address AppendAddr wrote.
func ReadAddr(r *wirebin.Reader) Addr {
	var a Addr
	copy(a.ID[:], r.Take(ids.Bytes))
	a.Endpoint = r.String()
	return a
}

func appendAddrs(dst []byte, as []Addr) []byte {
	dst = wirebin.AppendUvarint(dst, uint64(len(as)))
	for _, a := range as {
		dst = AppendAddr(dst, a)
	}
	return dst
}

func readAddrs(r *wirebin.Reader) []Addr {
	n := r.ListLen(ids.Bytes + 1)
	if n == 0 {
		return nil
	}
	out := make([]Addr, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ReadAddr(r))
	}
	return out
}

// wireErr wraps a reader's latched error with the payload type.
func wireErr(what string, r *wirebin.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("pastry: decoding %s payload: %w", what, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("pastry: decoding %s payload: %d trailing bytes", what, r.Len())
	}
	return nil
}

// AppendBinary implements pastry.Payload.
func (p *joinPayload) AppendBinary(dst []byte) ([]byte, error) {
	dst = AppendAddr(dst, p.Joiner)
	return appendAddrs(dst, p.Rows), nil
}

// DecodeBinary implements pastry.Payload.
func (p *joinPayload) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	p.Joiner = ReadAddr(r)
	p.Rows = readAddrs(r)
	return wireErr("join", r)
}

// AppendBinary implements pastry.Payload.
func (p *statePayload) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendAddrs(dst, p.Leaves)
	return appendAddrs(dst, p.Table), nil
}

// DecodeBinary implements pastry.Payload.
func (p *statePayload) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	p.Leaves = readAddrs(r)
	p.Table = readAddrs(r)
	return wireErr("state", r)
}
