package codec_test

import (
	"errors"
	"strings"
	"testing"

	"corona/internal/codec"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/wirebin"
)

type testPayload struct {
	Text  string
	Count int
}

// AppendBinary implements pastry.Payload.
func (p *testPayload) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, p.Text)
	return wirebin.AppendSint(dst, p.Count), nil
}

// DecodeBinary implements pastry.Payload.
func (p *testPayload) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	p.Text = r.String()
	p.Count = r.Sint()
	return r.Err()
}

// failingPayload cannot produce its binary form.
type failingPayload struct{}

// AppendBinary implements pastry.Payload, and always fails.
func (*failingPayload) AppendBinary(dst []byte) ([]byte, error) {
	return dst, errors.New("no binary form")
}

// DecodeBinary implements pastry.Payload.
func (*failingPayload) DecodeBinary([]byte) error { return nil }

func sampleMessage() pastry.Message {
	return pastry.Message{
		Type:    "codec.typed",
		Key:     ids.HashString("key"),
		From:    pastry.Addr{ID: ids.HashString("from"), Endpoint: "10.0.0.1:9001"},
		Hops:    3,
		Cover:   2,
		Payload: &testPayload{Text: "hello", Count: 42},
	}
}

// TestRoundTripBothCodecs round-trips a typed message through the
// codec. It keeps the name and the "binary" case it had when the package
// carried a second codec; binary is now the only one.
func TestRoundTripBothCodecs(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		want := sampleMessage()
		body, err := codec.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		if body[0]&(1<<2) == 0 {
			t.Fatalf("payload not flagged native binary: flags %08b", body[0])
		}
		got, err := codec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Key != want.Key || got.From != want.From ||
			got.Hops != want.Hops || got.Cover != want.Cover {
			t.Fatalf("envelope mismatch: got %+v want %+v", got, want)
		}
		if got.Payload != nil {
			t.Fatalf("payload should stay lazy until materialized, got %#v", got.Payload)
		}
		p, err := pastry.PayloadAs[testPayload](got)
		if err != nil {
			t.Fatal(err)
		}
		if *p != *want.Payload.(*testPayload) {
			t.Fatalf("payload = %+v", p)
		}
	})
}

func TestRoundTripZeroKeyNilPayload(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		want := pastry.Message{Type: "codec.bare", From: pastry.Addr{ID: ids.HashString("n"), Endpoint: "e"}}
		body, err := codec.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Key.IsZero() {
			t.Fatalf("key should stay zero, got %v", got.Key)
		}
		if got.Payload != nil {
			t.Fatalf("payload should stay nil, got %#v", got.Payload)
		}
		if raw, ok := got.RawPayload(); ok {
			t.Fatalf("no payload sent, but %d raw bytes retained", len(raw))
		}
		if _, err := pastry.PayloadAs[pastry.NoPayload](got); err != nil {
			t.Fatalf("a message without payload does not reach a NoPayload handler: %v", err)
		}
	})
}

// TestEncodeRejectsNonBinaryPayload pins the fail-closed encode: a payload
// whose AppendBinary fails yields no binary form, and that is an encode
// error (the transport drops the message) rather than a silent fallback.
// A payload without AppendBinary does not compile: pastry.Payload asks
// for it.
func TestEncodeRejectsNonBinaryPayload(t *testing.T) {
	msg := pastry.Message{Type: "codec.failing", Payload: &failingPayload{}}
	if body, err := codec.Encode(msg); err == nil {
		t.Fatalf("encoded %d bytes, want an error", len(body))
	}
	if n := codec.Measure(msg); n != 0 {
		t.Fatalf("Measure = %d, want 0 for an unencodable message", n)
	}
}

// TestDecodeRejectsUnflaggedPayload pins the fail-closed decode: an
// envelope whose payload lacks the native-binary flag (bit 2) is
// malformed, whatever the payload bytes.
func TestDecodeRejectsUnflaggedPayload(t *testing.T) {
	body, err := codec.Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	body[0] &^= 1 << 2
	if _, err := codec.Decode(body); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("unflagged payload decoded: err=%v", err)
	}
}

// TestUnregisteredPayloadDropsOnMaterialize pins the version-skew rule:
// Decode keeps the envelope of a message whatever its type, and leaves its
// payload as the bytes that arrived, for the handler of that type, if
// the node has one, to decode. A payload that is not the type a handler
// asks for materializes to an error, and the handler never runs.
func TestUnregisteredPayloadDropsOnMaterialize(t *testing.T) {
	body, err := codec.Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	msg, err := codec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	msg.Type = "codec.unregistered"
	if msg.Payload != nil {
		t.Fatalf("payload materialized without a handler: %#v", msg.Payload)
	}
	if _, ok := msg.RawPayload(); !ok {
		t.Fatal("payload bytes not kept for a handler")
	}
	if p, err := pastry.PayloadAs[pastry.NoPayload](msg); err == nil {
		t.Fatalf("a testPayload body materialized as %#v", p)
	}
}

func TestBinaryDecodeTruncated(t *testing.T) {
	body, err := codec.Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := codec.Decode(body[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(body))
		}
	}
}

// TestSharedPrefixFanOut pins the encode-once contract: copies of a
// broadcast sharing an encoding cell must produce exactly the bytes a
// fresh encode produces, with only the Hops/Cover trailer differing
// between contacts.
func TestSharedPrefixFanOut(t *testing.T) {
	base := sampleMessage()
	base.Hops++
	base.ShareEncoding()
	var bodies [][]byte
	for cover := 1; cover <= 4; cover++ {
		out := base
		out.Cover = cover
		body, err := codec.Encode(out)
		if err != nil {
			t.Fatal(err)
		}
		// The size-only fast path must agree with the materialized body.
		if got := codec.Measure(out); got != len(body) {
			t.Fatalf("Measure = %d, want %d", got, len(body))
		}
		// Identical to an unshared encode of the same message.
		plain := sampleMessage()
		plain.Hops = base.Hops
		plain.Cover = cover
		want, err := codec.Encode(plain)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want) {
			t.Fatalf("shared encode diverges at cover=%d", cover)
		}
		bodies = append(bodies, body)
	}
	// All copies share the hop-invariant prefix byte-for-byte.
	prefixLen := len(bodies[0]) - 2 // trailer here: two one-byte varints
	for _, b := range bodies[1:] {
		if string(b[:prefixLen]) != string(bodies[0][:prefixLen]) {
			t.Fatal("hop-invariant prefix differs between contacts")
		}
	}
	// And each decodes back with its own trailer.
	for i, b := range bodies {
		got, err := codec.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cover != i+1 || got.Hops != base.Hops {
			t.Fatalf("trailer mangled: hops=%d cover=%d", got.Hops, got.Cover)
		}
	}
}

func TestMeasureMatchesEncode(t *testing.T) {
	msg := sampleMessage()
	body, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := codec.Measure(msg); got != len(body) {
		t.Fatalf("Measure = %d, want %d", got, len(body))
	}
}

// TestAppendEncodeMatchesEncode pins the batch encoder transports use:
// appending a message to a buffer that already holds earlier bodies
// yields exactly those bodies followed by Encode's bytes — for a unicast
// message, for copies of a fanned-out broadcast (first encode and cached
// prefix), and for a forwarded message re-sending its raw payload — and
// a message that fails to encode leaves the buffer as it was.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	unicast := sampleMessage()
	shared := sampleMessage()
	shared.ShareEncoding()
	sharedAgain := shared
	sharedAgain.Cover = 7
	plainAgain := sampleMessage()
	plainAgain.Cover = 7
	body, err := codec.Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	forwarded, err := codec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	forwarded.Hops++
	unencodable := pastry.Message{Type: "codec.failing", Payload: &failingPayload{}}

	dst := []byte("earlier bodies")
	for _, tc := range []struct {
		name       string
		msg, plain pastry.Message // plain: the same message, unshared
	}{
		{"unicast", unicast, unicast},
		{"shared prefix, first copy", shared, sampleMessage()},
		{"shared prefix, cached", sharedAgain, plainAgain},
		{"forwarded raw", forwarded, forwarded},
	} {
		prior := string(dst)
		got, err := codec.AppendEncode(dst, tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := codec.Encode(tc.plain)
		if err != nil {
			t.Fatal(err)
		}
		want := prior + string(body)
		if string(got) != string(want) {
			t.Fatalf("%s: AppendEncode = %q, want %q", tc.name, got, want)
		}
		dst = got
	}
	before := string(dst)
	got, err := codec.AppendEncode(dst, unencodable)
	if err == nil {
		t.Fatal("a payload whose AppendBinary fails encoded")
	}
	if len(got) != len(before) || string(got) != before || string(dst) != before {
		t.Fatalf("failed AppendEncode changed dst: got %q, want %q", got, before)
	}
}
