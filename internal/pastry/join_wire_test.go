package pastry

// Wire-symmetry tests for the overlay protocol payloads: binary
// encodings must round-trip to identical structs and identical bytes,
// no truncation of a valid encoding may decode successfully, and a
// NoPayload decodes from nothing but an empty body.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"corona/internal/ids"
)

func randWireAddr(rng *rand.Rand) Addr {
	b := make([]byte, rng.Intn(20))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return Addr{ID: ids.Random(rng), Endpoint: string(b)}
}

func randWireAddrs(rng *rand.Rand) []Addr {
	n := rng.Intn(8)
	if n == 0 {
		return nil
	}
	out := make([]Addr, n)
	for i := range out {
		out[i] = randWireAddr(rng)
	}
	return out
}

func checkWireRoundTrip(t *testing.T, orig, fresh Payload) []byte {
	t.Helper()
	enc, err := orig.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode %T: %v", orig, err)
	}
	if err := fresh.DecodeBinary(enc); err != nil {
		t.Fatalf("decode %T: %v", fresh, err)
	}
	if !reflect.DeepEqual(orig, fresh) {
		t.Fatalf("round trip mutated %T:\n  in:  %+v\n  out: %+v", orig, orig, fresh)
	}
	re, err := fresh.AppendBinary(nil)
	if err != nil {
		t.Fatalf("re-encode %T: %v", fresh, err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encoding %T is not byte-stable", fresh)
	}
	return enc
}

func TestJoinWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		jp := &joinPayload{Joiner: randWireAddr(rng), Rows: randWireAddrs(rng)}
		checkWireRoundTrip(t, jp, &joinPayload{})
		sp := &statePayload{Leaves: randWireAddrs(rng), Table: randWireAddrs(rng)}
		checkWireRoundTrip(t, sp, &statePayload{})
	}
}

func TestJoinWireTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	jp := &joinPayload{Joiner: randWireAddr(rng), Rows: randWireAddrs(rng)}
	sp := &statePayload{Leaves: randWireAddrs(rng), Table: randWireAddrs(rng)}
	for _, p := range []Payload{jp, sp} {
		enc, err := p.AppendBinary(nil)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		for n := 0; n < len(enc); n++ {
			var fresh Payload
			if _, ok := p.(*joinPayload); ok {
				fresh = &joinPayload{}
			} else {
				fresh = &statePayload{}
			}
			if err := fresh.DecodeBinary(enc[:n]); err == nil {
				t.Fatalf("%T decoded a %d/%d-byte truncation without error", p, n, len(enc))
			}
		}
	}
}

func FuzzJoinWireDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		jp := &joinPayload{Joiner: randWireAddr(rng), Rows: randWireAddrs(rng)}
		enc, _ := jp.AppendBinary(nil)
		f.Add(enc)
		sp := &statePayload{Leaves: randWireAddrs(rng), Table: randWireAddrs(rng)}
		enc, _ = sp.AppendBinary(nil)
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jp := &joinPayload{}
		if jp.DecodeBinary(data) == nil {
			checkWireRoundTrip(t, jp, &joinPayload{})
		}
		sp := &statePayload{}
		if sp.DecodeBinary(data) == nil {
			checkWireRoundTrip(t, sp, &statePayload{})
		}
		if err := new(NoPayload).DecodeBinary(data); (err == nil) != (len(data) == 0) {
			t.Fatalf("NoPayload decoding %d bytes: err = %v", len(data), err)
		}
	})
}
