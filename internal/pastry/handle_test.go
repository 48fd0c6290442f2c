package pastry

import (
	"testing"

	"corona/internal/ids"
)

// TestHandleDecodesOnDelivery pins the registration's decode: a payload
// still held as the bytes it arrived in is decoded into the handler's
// type when the message reaches the handler, and the message the handler
// sees carries the struct and no longer the bytes, so a re-send encodes
// what the handler may have changed. A message whose payload is not the
// handler's type, as bytes or in memory, never reaches it; one without a
// payload reaches a NoPayload handler.
func TestHandleDecodesOnDelivery(t *testing.T) {
	n := NewNode(Addr{ID: ids.HashString("handle"), Endpoint: "sim://0"}, nil, nil)
	var got []Message
	Handle(n, "t.state", func(msg Message, p *statePayload) {
		if msg.Payload != Payload(p) {
			t.Errorf("handler's message carries %#v, not its payload", msg.Payload)
		}
		if _, ok := msg.RawPayload(); ok {
			t.Error("decoded payload still shadowed by its raw bytes")
		}
		got = append(got, msg)
	})
	var bare int
	Handle(n, "t.bare", func(Message, *NoPayload) { bare++ })

	want := &statePayload{Leaves: []Addr{n.Self()}}
	body, err := want.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := Message{Type: "t.state"}
	wire.SetRawPayload(body)
	n.deliverLocal(wire)
	if len(got) != 1 || got[0].Payload.(*statePayload).Leaves[0] != n.Self() {
		t.Fatalf("wire payload delivered as %+v", got)
	}

	malformed := Message{Type: "t.state"}
	malformed.SetRawPayload(body[:len(body)-1])
	n.deliverLocal(malformed)
	n.deliverLocal(Message{Type: "t.state", Payload: &joinPayload{}})
	n.deliverLocal(Message{Type: "t.state"})
	if len(got) != 1 {
		t.Fatalf("%d deliveries reached the handler, want only the well-formed one", len(got))
	}

	n.deliverLocal(Message{Type: "t.bare"})
	n.deliverLocal(Message{Type: "t.bare", Payload: &NoPayload{}})
	if bare != 2 {
		t.Fatalf("NoPayload handler ran %d times, want 2", bare)
	}
}
