package clientproto

import "testing"

// TestOutboxControlBoundClosesSlow: control items are never shed, so the
// bound on them is enforced by closing the session — the queue never
// holds more than the bound, and the close is counted as slow.
func TestOutboxControlBoundClosesSlow(t *testing.T) {
	const bound = 4
	e := NewEdge(bound, encodeNotify, nil)
	torn := 0
	o, _ := e.Open(func() { torn++ })
	for i := 0; i < 3*bound; i++ {
		o.Control(&Ack{ReqID: uint64(i)})
		o.mu.Lock()
		n := len(o.queue)
		o.mu.Unlock()
		if n > bound {
			t.Fatalf("queue holds %d control items, bound %d", n, bound)
		}
	}
	select {
	case <-o.Done():
	default:
		t.Fatal("session not closed at the control bound")
	}
	if st := e.Stats(); st.ClosedSlow != 1 || torn != 1 {
		t.Fatalf("closed slow %d, teardowns %d; want 1 and 1", st.ClosedSlow, torn)
	}
}
